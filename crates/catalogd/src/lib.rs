//! # tsj-catalogd
//!
//! Networked catalog serving: the in-process cluster of [`tsj_cluster`],
//! stretched across real processes on real sockets — one `catalogd`
//! process per node, each restoring **only its owned shard sections**
//! from the frozen snapshot, and a [`ClusterClient`] speaking a small
//! length-prefixed binary protocol to scatter/gather joins across them.
//!
//! Three layers, one contract:
//!
//! * [`wire`] — the protocol. Every frame is
//!   `len | type | payload | checksum` (FNV-1a over type + payload);
//!   malformed, truncated or oversized input decodes to a typed
//!   [`wire::WireError`], never a panic. The byte layout is specified in
//!   `docs/PROTOCOL.md`, and a test round-trips the document's example
//!   frames byte-for-byte against this codec so the spec cannot drift.
//! * [`Catalogd`] — the server. `std::net` + a thread per connection;
//!   no async runtime, no new dependencies. Each connection gets its own
//!   probe registry and verify scratch; the shared node state is
//!   read-only. Serving metrics are node-labeled `tsj_catalogd_*` series
//!   answered over the [`wire::Frame::Metrics`] frame as Prometheus
//!   text.
//! * [`ClusterClient`] — the router, again. It owns a
//!   [`tsj_cluster::Router`], the type the in-process cluster owns, so
//!   planning, replica failover, bounded retries with deterministic
//!   backoff, per-probe deadlines and the typed `Complete`/`Degraded`
//!   outcome are one implementation, driven here through a TCP
//!   [`tsj_cluster::NodeTransport`] over pooled connections
//!   ([`ConnPool`]).
//!
//! Because the planner, router and per-shard serving logic are all
//! shared, **bit-identity extends across the wire**: a TCP join's pairs,
//! candidate counts and filter-stage counters are property-tested equal
//! to `Cluster::join` and single-node `Catalog::join` — including under
//! killed-process failover at replication ≥ 2.
//!
//! The crate ships two binaries: `catalogd` (freeze a demo snapshot /
//! serve one node of it) and `loadgen` (probes/sec and latency
//! percentiles against a running node set, plus a `--smoke` mode the CI
//! loopback job runs). `examples/catalogd_demo.rs` walks the full
//! kill-one-node arc; `docs/OPERATIONS.md` is the runbook.

#![warn(missing_docs)]

pub mod wire;

mod client;
mod error;
mod pool;
mod server;

pub use client::{ClientConfig, ClusterClient, TcpTransport};
pub use error::CatalogdError;
pub use pool::{ConnPool, MAX_IDLE_PER_ADDR};
pub use server::{Catalogd, RunningServer, ServerConfig};

use tsj_tree::{Label, LabelInterner, Tree};

/// Builds an interner that resolves every raw label id used by `trees`,
/// naming id `i` as `"L{i}"`.
///
/// The datagen collections draw labels as raw ids (`1..=num_labels`)
/// without string names; the wire protocol ships probe labels as
/// strings. Interning `"L1"..="Lmax"` in order reproduces the exact raw
/// ids, so a catalog frozen with this interner joins bit-identically to
/// one frozen with the raw-labeled trees directly.
pub fn interner_for(trees: &[Tree]) -> LabelInterner {
    let mut max_id = 0u32;
    for tree in trees {
        for node in tree.node_ids() {
            max_id = max_id.max(tree.label(node).raw());
        }
    }
    let mut interner = LabelInterner::new();
    for id in 1..=max_id {
        let label = interner.intern(&format!("L{id}"));
        debug_assert_eq!(label, Label::from_raw(id));
    }
    interner
}
