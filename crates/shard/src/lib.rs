//! # tsj-shard
//!
//! A **sharded, dynamic** version of PartSJ's two-layer subgraph index,
//! and the joins built on top of it.
//!
//! The core crate's [`partsj::SubgraphIndex`] is a monolithic structure
//! grown on the fly by Algorithm 1. Two of the roadmap's scale
//! directions need more:
//!
//! * **Parallel candidate generation and verification.** Algorithm 1's
//!   probe loop is pinned to one core because the index mutates while
//!   the join runs. [`sharded_join`] breaks that dependency by building
//!   the index *offline first* — sharded so the build itself fans out —
//!   and reproducing Algorithm 1's "each unordered pair exactly once"
//!   semantics with a processing-*rank* filter instead of insertion
//!   order (à la the map/reduce-style partitioned joins of *Adaptive
//!   MapReduce Similarity Joins*). Probing trees then fan out over
//!   `crossbeam` scoped threads and feed a batched, bounded-channel
//!   verifier pool — the workspace's one pooled executor; `partsj`
//!   itself is thread-free. Results are bit-identical to
//!   [`partsj::partsj_join`].
//! * **Deletion and eviction.** Streaming workloads insert *and expire*.
//!   [`ShardedIndex`] supports [`ShardedIndex::remove_tree`]: removed
//!   trees are tombstoned (probes filter them through a liveness bitmap)
//!   and each shard compacts itself — one in-place
//!   [`partsj::SubgraphIndex::retain_trees`] sweep, no second copy of
//!   anything — once the dead fraction of its postings passes
//!   [`ShardConfig::max_dead_fraction`], in the spirit of *Dynamic
//!   Enumeration of Similarity Joins*.
//!   [`ShardedStreamingJoin`] packages this as a sliding-window monitor
//!   with an [`EvictionPolicy`] by count or by logical timestamp.
//!
//! The other regime — index one side **once**, stream probes through it
//! — is [`Frozen`]: the sharded index, the side list and the verify
//! inputs of a left collection as one owned value, built
//! ([`sharded_rs_join`]) or restored from a snapshot (`tsj-catalog`,
//! `tsj-cluster`).
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
//! use tsj_shard::{sharded_join, ShardConfig};
//! use tsj_tree::{parse_bracket, LabelInterner};
//!
//! let mut labels = LabelInterner::new();
//! let trees: Vec<_> = ["{a{b}{c}}", "{a{b}{c}}", "{a{b}{z}}", "{x{y}}"]
//!     .iter()
//!     .map(|s| parse_bracket(s, &mut labels).unwrap())
//!     .collect();
//! let outcome = sharded_join(&trees, 1, &PartSjConfig::default(), &ShardConfig::default());
//! assert_eq!(outcome.pairs, vec![(0, 1), (0, 2), (1, 2)]); // ≡ partsj_join
//! ```

#![warn(missing_docs)]

pub mod frozen;
pub mod index;
pub mod join;
mod pool;
pub mod rs_join;
pub mod streaming;

pub use frozen::{Frozen, FrozenJoinScratch};
pub use index::{ShardConfig, ShardMap, ShardedIndex};
pub use join::{build_subgraph_lists, sharded_join, sharded_join_detailed};
pub use rs_join::sharded_rs_join;
pub use streaming::{EvictionPolicy, ShardedStreamingJoin, StaleTimestamp};
