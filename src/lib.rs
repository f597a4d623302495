//! # tree-similarity-join
//!
//! A complete reproduction of **“Scaling Similarity Joins over
//! Tree-Structured Data”** (Yu Tang, Yilun Cai, Nikos Mamoulis — PVLDB
//! 8(11), VLDB 2015) as a production-quality Rust workspace.
//!
//! Given a collection of rooted ordered labeled trees and a threshold `τ`,
//! the similarity self-join reports every pair within tree edit distance
//! (TED) `τ`. The paper's contribution — **PartSJ** — dynamically
//! partitions each tree's left-child right-sibling representation into
//! `δ = 2τ + 1` balanced subgraphs and indexes them in a two-layer
//! (postorder × label-twig) structure; a pair is only verified when one
//! tree contains a subgraph of the other.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`tree`] (`tsj-tree`) — trees, labels, parsers, LC-RS transform;
//! * [`ted`] (`tsj-ted`) — Zhang–Shasha / hybrid TED, string edit
//!   distance, lower bounds;
//! * [`baselines`] (`tsj-baselines`) — the paper's competitors `STR` and
//!   `SET`, plus the brute-force oracle;
//! * [`partsj`] — the partition-based join itself;
//! * [`datagen`] (`tsj-datagen`) — workload generators for all four
//!   evaluation datasets.
//!
//! ## Quickstart
//!
//! ```
//! use tree_similarity_join::prelude::*;
//!
//! let mut labels = LabelInterner::new();
//! let trees: Vec<_> = ["{a{b}{c}}", "{a{b}{c}}", "{a{b}{z}}", "{x{y}}"]
//!     .iter()
//!     .map(|s| parse_bracket(s, &mut labels).unwrap())
//!     .collect();
//!
//! // All pairs within TED 1:
//! let outcome = partsj_join(&trees, 1);
//! assert_eq!(outcome.pairs, vec![(0, 1), (0, 2), (1, 2)]);
//! ```
//!
//! `JoinOutcome::pairs` is deterministic: every pair is normalized to
//! `(i, j)` with `i < j`, sorted lexicographically and deduplicated, so
//! results can be compared directly across methods and runs.
//!
//! ## R×S (bipartite) joins
//!
//! Joining two *different* collections — a reference catalog against an
//! incoming feed, say — uses [`prelude::rs_join`] (an alias of
//! [`partsj::partsj_join_rs`]). Pairs are `(left index, right index)` in
//! their own index spaces, built with `JoinOutcome::new_bipartite`, so
//! components are never swapped:
//!
//! ```
//! use tree_similarity_join::prelude::*;
//!
//! let mut labels = LabelInterner::new();
//! let catalog: Vec<_> = ["{item{kbd}{price}}", "{item{dock}{ports}}"]
//!     .iter()
//!     .map(|s| parse_bracket(s, &mut labels).unwrap())
//!     .collect();
//! let feed: Vec<_> = ["{item{dock}{plug}}", "{page{nav}{body}}", "{item{kbd}{price}}"]
//!     .iter()
//!     .map(|s| parse_bracket(s, &mut labels).unwrap())
//!     .collect();
//!
//! let outcome = rs_join(&catalog, &feed, 1, &PartSjConfig::default());
//! // catalog[0] ≈ feed[2] (exact) and catalog[1] ≈ feed[0] (one rename).
//! assert_eq!(outcome.pairs, vec![(0, 2), (1, 0)]);
//! ```
//!
//! ## Configuring the verification filter chain
//!
//! Every entry point verifies candidates through one engine
//! ([`partsj::VerifyEngine`]): a fixed chain of four cheap lower/upper
//! distance bounds in front of exact TED, each switched on or off via
//! [`prelude::VerifyConfig`]. Disabling a stage never changes the result
//! pairs — every stage is a sound bound — it only shifts work onto the
//! exact TED fallback:
//!
//! ```
//! use tree_similarity_join::prelude::*;
//!
//! let mut labels = LabelInterner::new();
//! let trees: Vec<_> = ["{a{b}{c}}", "{a{b}{c}}", "{a{b}{z}}", "{x{y}}"]
//!     .iter()
//!     .map(|s| parse_bracket(s, &mut labels).unwrap())
//!     .collect();
//!
//! // Disable the banded traversal-string stage, keep the other three.
//! let config = PartSjConfig {
//!     verify: VerifyConfig {
//!         traversal: false,
//!         ..Default::default()
//!     },
//!     ..Default::default()
//! };
//! let ablated = partsj_join_with(&trees, 1, &config);
//! let full = partsj_join(&trees, 1);
//! assert_eq!(ablated.pairs, full.pairs); // stages never change results
//!
//! // `JoinStats` reports where candidates died, stage by stage.
//! for stage in &full.stats.stage_counts {
//!     println!("{}: {}", stage.stage, stage.count);
//! }
//! assert!(full.stats.early_accepts > 0); // duplicates skip exact TED
//! ```
//!
//! ## Sharding and streaming at scale
//!
//! The [`shard`] crate (`tsj-shard`) partitions the subgraph index across
//! shards keyed by container size class and owns every thread the join
//! stack spawns. The self-join stays `partsj_join`, which builds its
//! index while it probes; `sharded_rs_join` indexes the left side of an
//! R×S join up front and fans the right side's candidate generation
//! *and* verification out over worker pools (`ShardConfig::probe_threads`
//! / `verify_threads`; bit-identical results to `partsj_join_rs`), and
//! `ShardedStreamingJoin` is the online join — insert trees one at a
//! time, learn each newcomer's partners at once — with deletion and
//! sliding-window eviction (`EvictionPolicy`) on a dynamic index with
//! tombstone compaction; see `examples/streaming_monitor.rs`. Point
//! queries against an indexed collection are `Catalog::query`, below.
//!
//! ## Freezing a catalog
//!
//! When one side of the join is long-lived — a reference catalog probed
//! by many feeds — the [`catalog`] crate (`tsj-catalog`) freezes its
//! sharded index **once** (a [`shard::Frozen`] side: the value
//! `sharded_rs_join` builds on the spot and a cluster node restores for
//! the shards it owns), persists it as a versioned, checksummed binary
//! snapshot, and serves indexed-left joins against it at any per-query
//! threshold up to the frozen one. Loading a snapshot joins
//! bit-identically to `sharded_rs_join` over the original trees:
//!
//! ```
//! use tree_similarity_join::prelude::*;
//!
//! let mut labels = LabelInterner::new();
//! let trees: Vec<_> = ["{item{kbd}{price}}", "{item{dock}{ports}}"]
//!     .iter()
//!     .map(|s| parse_bracket(s, &mut labels).unwrap())
//!     .collect();
//! let catalog = Catalog::freeze(
//!     trees,
//!     labels,
//!     2, // frozen tau: the ceiling of every per-query threshold
//!     &PartSjConfig::default(),
//!     &ShardConfig::with_shards(2),
//! );
//! let served = Catalog::from_bytes(catalog.to_bytes()).unwrap(); // save/load round trip
//!
//! let mut labels = served.labels().clone();
//! let probe = parse_bracket("{item{dock}{plug}}", &mut labels).unwrap();
//! let outcome = served
//!     .join(&[probe], 1, &PartSjConfig::default(), &ShardConfig::default())
//!     .unwrap();
//! assert_eq!(outcome.pairs, vec![(1, 0)]);
//! ```
//!
//! See `examples/catalog_server.rs` for the full freeze → save → load →
//! serve loop, and the "Catalog service" section of
//! `docs/ARCHITECTURE.md` for the snapshot format and the freeze-vs-rebuild trade-off.
//!
//! ## Cluster serving & fault tolerance
//!
//! The [`cluster`] crate (`tsj-cluster`) splits a frozen snapshot's
//! per-shard sections across N in-process catalog nodes (replication
//! factor R) behind a scatter/gather router:
//! [`prelude::Cluster::join`] is bit-identical to single-node
//! `Catalog::join` — pairs, candidate counts and stage counters — and
//! stays so under single-node loss with R ≥ 2 (failover). Every node
//! sits behind a deterministic fault injector ([`prelude::FaultPlan`]);
//! unrecoverable losses produce a typed [`prelude::Degraded`] coverage
//! report, never a silent wrong answer. See
//! `examples/cluster_failover.rs` and the "Cluster serving & fault
//! tolerance" section of `docs/ARCHITECTURE.md`.
//!
//! ## Observability
//!
//! The [`obs`] crate (`tsj-obs`) instruments every layer above:
//! lock-free counters, gauges and log-scale latency histograms in a
//! global [`obs::MetricsRegistry`], structured trace spans on an
//! injectable clock, and two exporters (Prometheus text,
//! [`obs::export::to_json`]). It is on by default and configured with
//! [`prelude::ObsConfig`]; disabling it never changes any join result —
//! a property test pins bit-identical pairs, candidates and stage
//! counters across configurations. See the "Observability" section of
//! `docs/OPERATIONS.md` and `experiments -- metrics`.
//!
//! ```
//! use tree_similarity_join::prelude::*;
//!
//! let mut labels = LabelInterner::new();
//! let trees: Vec<_> = ["{a{b}{c}}", "{a{b}{z}}"]
//!     .iter()
//!     .map(|s| parse_bracket(s, &mut labels).unwrap())
//!     .collect();
//! let _ = partsj_join(&trees, 1);
//! let snapshot = tree_similarity_join::obs::global().snapshot();
//! assert!(snapshot.counter("tsj_core_joins_total").unwrap_or(0) >= 1);
//! println!("{}", tree_similarity_join::obs::export::to_prometheus(&snapshot));
//! ```

pub use partsj;
pub use tsj_baselines as baselines;
pub use tsj_catalog as catalog;
pub use tsj_cluster as cluster;
pub use tsj_datagen as datagen;
pub use tsj_obs as obs;
pub use tsj_shard as shard;
pub use tsj_ted as ted;
pub use tsj_tree as tree;

/// The most common imports in one place.
pub mod prelude {
    /// The bipartite join under its natural name (alias of
    /// [`partsj::partsj_join_rs`]); outcomes are built with
    /// [`tsj_ted::JoinOutcome::new_bipartite`].
    pub use partsj::partsj_join_rs as rs_join;
    pub use partsj::{
        partsj_join, partsj_join_detailed, partsj_join_rs, partsj_join_with, partsj_topk,
        partsj_topk_with, MatchSemantics, PartSjConfig, PartitionScheme, TopKOutcome, TopKPair,
        VerifyConfig, VerifyData, VerifyEngine, WindowPolicy,
    };
    pub use tsj_baselines::{brute_force_join, set_join, str_join};
    pub use tsj_catalog::{Catalog, CatalogError, SnapshotReader};
    pub use tsj_cluster::{
        Cluster, ClusterConfig, ClusterError, ClusterJoin, Degraded, Fault, FaultInjector,
        FaultPlan, NodeMetricsSnapshot, RequestStats, RetryPolicy, SystemClock, Telemetry,
        Topology, VirtualClock,
    };
    pub use tsj_datagen::{
        collection_stats, sentiment_like, swissprot_like, synthetic, synthetic_sized,
        treebank_like, SyntheticParams,
    };
    pub use tsj_obs::{
        Clock, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
        ObsConfig, Span, TraceBuffer, TraceEvent,
    };
    pub use tsj_shard::{
        sharded_rs_join, EvictionPolicy, ShardConfig, ShardMap, ShardedIndex, ShardedStreamingJoin,
    };
    pub use tsj_ted::{ted, JoinOutcome, JoinStats, StageCount, TedEngine};
    pub use tsj_tree::{
        parse_bracket, parse_xmlish, to_bracket, BinaryTree, Label, LabelInterner, Tree,
        TreeBuilder,
    };
}
