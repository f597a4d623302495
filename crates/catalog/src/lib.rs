//! # tsj-catalog
//!
//! A **frozen catalog service** for PartSJ: freeze a collection's
//! sharded subgraph index once, persist it as a versioned binary
//! snapshot, and serve many indexed-left joins and similarity queries
//! against it — the "join against a frozen catalog" regime of the
//! roadmap, in the spirit of *Dynamic Enumeration of Similarity Joins*
//! (long-lived indexed side, stream of probes).
//!
//! The paper's batch join treats both collections as transient and
//! rebuilds the index per run. A serving system inverts that: one side —
//! the catalog — is long-lived and read-mostly, while probes arrive
//! continuously. This crate provides the three pieces:
//!
//! * **[`Catalog::freeze`]** — partition and index a collection for a
//!   freeze threshold `τ_f` into a [`tsj_shard::Frozen`] side, exactly
//!   as [`tsj_shard::sharded_rs_join`]'s build phase does.
//! * **Snapshots** — [`Catalog::save`] / [`Catalog::load`] persist the
//!   catalog as a checked binary format (magic, version, per-section
//!   [`format::checksum`]s): label store, tree store, and one independently
//!   decodable section per shard — the unit of multi-node placement.
//!   Corruption surfaces as a typed [`CatalogError`], never a panic.
//!   [`SnapshotReader`] reads headers without decoding the rest, and
//!   [`SnapshotReader::restore`] is the one validating way a snapshot
//!   — whole, or a node's owned shards — becomes a frozen side again.
//! * **Serving** — [`Catalog::join`] runs batch probes through the same
//!   probe fan-out + bounded-channel verify pool as the sharded R×S
//!   join (bit-identical pairs and candidate counts at `τ = τ_f`);
//!   [`Catalog::query`] answers single-probe searches with exact
//!   distances. Both accept any per-query `τ ≤ τ_f` — postings are
//!   registered once with the freeze-time window, and smaller
//!   thresholds only narrow the probed size window, so completeness is
//!   preserved (see [`Catalog`] for the argument).
//!
//! ```
//! use tsj_catalog::Catalog;
//! use partsj::PartSjConfig;
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
//!     labels,
//!     2,
//!     &PartSjConfig::default(),
//!     &ShardConfig::with_shards(2),
//! );
//!
//! // Persist and reload — byte-for-byte deterministic.
//! let bytes = catalog.to_bytes();
//! let served = Catalog::from_bytes(bytes).unwrap();
//!
//! // Probe at a *smaller* per-query threshold than the frozen tau = 2.
//! let mut labels = served.labels().clone();
//! let probe = parse_bracket("{item{dock}{plug}}", &mut labels).unwrap();
//! let outcome = served
//!     .join(&[probe], 1, &PartSjConfig::default(), &ShardConfig::default())
//!     .unwrap();
//! assert_eq!(outcome.pairs, vec![(1, 0)]); // catalog[1] ≈ probe, one rename
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod error;
pub mod format;
pub mod snapshot;

pub use catalog::{Catalog, QueryScratch};
pub use error::CatalogError;
pub use snapshot::{SnapshotReader, FORMAT_VERSION, MAGIC};
