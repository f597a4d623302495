//! # tsj-shard
//!
//! A **sharded, dynamic** version of PartSJ's two-layer subgraph index,
//! and the joins built on top of it.
//!
//! The core crate's [`partsj::SubgraphIndex`] is a monolithic structure
//! grown on the fly by Algorithm 1, whose self-join
//! ([`partsj::partsj_join`]) interleaves probing and indexing on one
//! thread. Two regimes need more:
//!
//! * **An offline side, probed in parallel.** When one collection is
//!   indexed once and probed by another, nothing mutates while the join
//!   runs. [`Frozen`] is that side: the sharded index (each shard's side
//!   list included) and the verify inputs of a left collection as one
//!   owned value, built
//!   ([`sharded_rs_join`], shards ingesting concurrently) or restored
//!   from a snapshot (`tsj-catalog`, `tsj-cluster`). Right trees then
//!   fan out over `crossbeam` scoped threads and feed a batched,
//!   bounded-channel verifier pool — the workspace's one pooled
//!   executor; `partsj` itself is thread-free. Results are bit-identical
//!   to [`partsj::partsj_join_rs`].
//!
//! Every probe here is `partsj`'s one probe step: a [`partsj::Prober`]
//! walks a [`ShardedIndex`], the many-part [`partsj::ProbeIndex`].
//! * **Deletion and eviction.** Streaming workloads insert *and expire*.
//!   [`ShardedIndex`] supports [`ShardedIndex::remove_tree`]: removed
//!   trees are tombstoned (probes filter them through per-tree liveness
//!   flags) and each shard compacts itself — one in-place
//!   [`partsj::SubgraphIndex::retain_trees`] sweep, no second copy of
//!   anything — once the dead fraction of its postings passes
//!   [`ShardConfig::max_dead_fraction`], in the spirit of *Dynamic
//!   Enumeration of Similarity Joins*.
//!   [`ShardedStreamingJoin`] packages this as a sliding-window monitor
//!   with an [`EvictionPolicy`] by count or by logical timestamp.
//!
//! ## Shard key
//!
//! The shard key is a hash of the **container size class** `n`. All
//! postings of `I_n` live in exactly one shard, so a probe tree's size
//! window `[|T| − τ, |T| + τ]` maps to a small, precomputable shard set
//! (at most `min(2τ + 1, shards)` shards — see
//! [`ShardedIndex::shard_set`]) and every shard can be probed, built and
//! compacted independently of the others.
//!
//! ```
//! use partsj::PartSjConfig;
//! use tsj_shard::{sharded_rs_join, ShardConfig};
//! use tsj_tree::{parse_bracket, LabelInterner};
//!
//! let mut labels = LabelInterner::new();
//! let mut parse = |specs: &[&str]| -> Vec<_> {
//!     specs.iter().map(|s| parse_bracket(s, &mut labels).unwrap()).collect()
//! };
//! let left = parse(&["{a{b}{c}}", "{a{b}{z}}", "{x{y}}"]);
//! let right = parse(&["{a{b}{c}}", "{x{y}{z}}"]);
//! let config = PartSjConfig::default();
//! let outcome = sharded_rs_join(&left, &right, 1, &config, &ShardConfig::default());
//! assert_eq!(outcome.pairs, vec![(0, 0), (1, 0), (2, 1)]); // ≡ partsj_join_rs
//! ```

#![warn(missing_docs)]

pub mod frozen;
pub mod index;
mod pool;
pub mod streaming;

pub use frozen::{
    build_subgraph_lists, sharded_rs_join, Frozen, FrozenBytes, FrozenJoinScratch, FrozenRestore,
};
pub use index::{ShardConfig, ShardMap, ShardedIndex};
pub use streaming::{EvictionPolicy, ShardedStreamingJoin, StaleTimestamp};
