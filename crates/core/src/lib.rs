//! # partsj
//!
//! **PartSJ** — the partition-based similarity join over tree-structured
//! data of Tang, Cai & Mamoulis, *Scaling Similarity Joins over
//! Tree-Structured Data*, PVLDB 8(11), 2015. This crate is the paper's
//! primary contribution:
//!
//! * δ-partitioning of LC-RS binary trees with the max-min subgraph size
//!   scheme (§3.3, Algorithms 2–3) — [`partition`];
//! * subgraph extraction with bridging edges and embedding matching
//!   (§3.1/§3.4) — [`subgraph`];
//! * the on-the-fly two-layer (postorder × label-twig) inverted index
//!   (§3.4) — [`index`];
//! * Algorithm 1's probe step and δ rule, written once — [`probe`]: a
//!   prober probes and publishes into a subgraph index, which keeps the
//!   [`SideList`] of trees too small to cut beside its postings;
//! * the join loop itself (§3.2, Algorithm 1) — [`join`] — and its
//!   bipartite ([`rs_join`]) and top-k ([`topk`]) variants, all three
//!   running that one prober.
//!
//! The crate is thread-free: the pooled, sharded, streaming and
//! point-query forms of the same loop live one crate up, in `tsj-shard`
//! and `tsj-catalog`.
//!
//! ```
//! use partsj::partsj_join;
//! use tsj_tree::{parse_bracket, LabelInterner};
//!
//! let mut labels = LabelInterner::new();
//! let trees: Vec<_> = ["{a{b}{c}}", "{a{b}{c}}", "{a{b}{z}}", "{x{y}}"]
//!     .iter()
//!     .map(|s| parse_bracket(s, &mut labels).unwrap())
//!     .collect();
//! let outcome = partsj_join(&trees, 1);
//! assert_eq!(outcome.pairs, vec![(0, 1), (0, 2), (1, 2)]);
//! ```
//!
//! Result pairs are always `(i, j)` with `i < j`, sorted
//! lexicographically and deduplicated ([`JoinOutcome::new`] normalizes
//! them), so outcomes compare with `assert_eq!` across join methods,
//! thread counts and runs.
//!
//! [`JoinOutcome::new`]: tsj_ted::JoinOutcome::new
//!
//! The filtering principle (Lemma 2): if `TED(T1, T2) ≤ τ`, any
//! `δ = 2τ + 1`-partitioning of `T1`'s binary representation contains at
//! least one subgraph that also appears in `T2`'s — so a pair without a
//! shared subgraph is pruned without computing TED.

#![warn(missing_docs)]

pub mod config;
pub mod index;
pub mod join;
pub mod partition;
pub mod probe;
pub mod rs_join;
pub mod subgraph;
pub mod topk;
pub mod verify;

pub use config::{MatchSemantics, PartSjConfig, PartitionScheme, VerifyConfig, WindowPolicy};
pub use index::{
    BucketDump, ComponentDump, ComponentId, IndexDump, LayerDump, LayerId, MatchCache,
    PostorderLayer, SubgraphHandle, SubgraphIndex, SubgraphMeta, TwigKeys,
};
pub use join::{partsj_join, partsj_join_detailed, partsj_join_with, PartSjDetail};
pub use partition::{cuts_for, max_min_size, partitionable, select_cuts, select_random_cuts};
pub use probe::{
    classes_within, for_each_probe_node, probe_tree_nodes, resolve_layers, window_of,
    CandidateSink, Candidates, ProbeCounters, ProbeNode, ProbeScratch, SideList, StampSink,
};
pub use rs_join::partsj_join_rs;
pub use subgraph::{
    build_subgraphs, is_side_listed, nodes_match_at, partition_tree, partition_tree_with,
    subgraph_matches, subgraph_matches_with, ChildKind, Partition, PartitionScratch, SgNode,
    Subgraph,
};
pub use topk::{partsj_topk, partsj_topk_with, TopKOutcome, TopKPair};
pub use verify::{
    verify_stage, Materialized, ProbeVerify, VerifyData, VerifyEngine, VerifyPrep, VERIFY_STAGES,
};
