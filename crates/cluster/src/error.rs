//! The cluster-layer error type.
//!
//! Everything that can go wrong in the serving layer is a typed,
//! printable value: snapshot decode failures surface the underlying
//! [`CatalogError`] (so a corrupted shard section names its checksum
//! mismatch), topology mistakes are caught at construction, and a query
//! threshold above the frozen one is rejected exactly like
//! `Catalog::join` rejects it. The router never panics on a fault — a
//! node that cannot serve reports one of these and the router routes
//! around it.

use tsj_catalog::CatalogError;

/// Any error the cluster layer can produce.
#[derive(Debug)]
pub enum ClusterError {
    /// A snapshot failed to parse or a section failed to decode —
    /// including checksum mismatches from corrupted shard sections. A
    /// node whose restore hits this is marked down with the error
    /// attached ([`crate::Cluster::node_error`]).
    Snapshot(CatalogError),
    /// The requested topology cannot be built (zero nodes, replica list
    /// inconsistencies, snapshot/node-count mismatch).
    Topology {
        /// What was wrong.
        context: String,
    },
    /// The query threshold exceeds the one the snapshot was frozen for.
    TauExceedsFrozen {
        /// Requested per-query threshold.
        query: u32,
        /// Threshold the snapshot was frozen for.
        frozen: u32,
    },
    /// A request reached a node for a shard it does not own — a routing
    /// bug surfaced as a typed error rather than a panic.
    ShardNotOwned {
        /// The node that received the request.
        node: usize,
        /// The shard it does not hold.
        shard: u32,
    },
    /// A request named a size class the shard map gives another shard
    /// than the one it addressed — the node holds nothing of that class
    /// to verify against, so it refuses instead of answering short.
    ClassNotOwned {
        /// The node that received the request.
        node: usize,
        /// The shard the request addressed.
        shard: u32,
        /// The first class the shard does not own.
        class: u32,
    },
    /// Recovery was asked to restore a shard but no intact copy of its
    /// section survives on any reachable snapshot.
    Unrecoverable {
        /// The shard with no intact section left.
        shard: u32,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            ClusterError::Topology { context } => write!(f, "invalid topology: {context}"),
            ClusterError::TauExceedsFrozen { query, frozen } => write!(
                f,
                "query threshold {query} exceeds the frozen threshold {frozen}"
            ),
            ClusterError::ShardNotOwned { node, shard } => {
                write!(f, "node {node} does not own shard {shard}")
            }
            ClusterError::ClassNotOwned { node, shard, class } => write!(
                f,
                "node {node}: size class {class} does not belong to shard {shard}"
            ),
            ClusterError::Unrecoverable { shard } => {
                write!(f, "no intact snapshot section left for shard {shard}")
            }
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CatalogError> for ClusterError {
    fn from(e: CatalogError) -> ClusterError {
        ClusterError::Snapshot(e)
    }
}
