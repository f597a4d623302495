//! # tsj-ted
//!
//! Exact tree edit distance (TED) and string edit distance kernels for the
//! reproduction of *Scaling Similarity Joins over Tree-Structured Data*
//! (Tang, Cai & Mamoulis, VLDB 2015).
//!
//! * [`zs`] — the Zhang–Shasha O(n²)-space dynamic program under unit
//!   costs, and its τ-bounded form that fills only the `|x − y| ≤ τ` band;
//! * [`hybrid`] — an RTED-inspired engine that dynamically picks between
//!   left-path and mirrored (right-path) decompositions per tree pair (see
//!   `docs/ARCHITECTURE.md` §Substitutions);
//! * [`sed`](mod@sed) — full and banded (threshold-aware) string edit distance;
//! * [`bounds`] — the TED lower bounds used by the filtering baselines;
//! * [`mapping`] — a τ-banded constrained-mapping *upper* bound, the
//!   verify chain's accept before exact TED.

#![warn(missing_docs)]

pub mod bounds;
pub mod hybrid;
pub mod mapping;
pub mod outcome;
pub mod sed;
pub mod ted_tree;
pub mod zs;

pub use bounds::{
    degree_bound, degree_histogram, histogram_bound, label_histogram, size_bound, traversal_bound,
    traversal_within, traversal_within_with, TraversalStrings,
};
pub use hybrid::{ted, PreparedTree, TedEngine};
pub use mapping::{mapping_bound_within, MappingWorkspace};
pub use outcome::{JoinOutcome, JoinStats, JoinWork, StageCount, TreeIdx};
pub use sed::{sed, sed_with, sed_within, sed_within_with, SedScratch};
pub use ted_tree::{TedBuildScratch, TedTree};
pub use zs::{tree_distance, tree_distance_bounded, TedWorkspace};
