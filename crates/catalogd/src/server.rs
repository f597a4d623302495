//! The `catalogd` server: one process per catalog node, restoring only
//! its owned shard sections and answering wire frames over TCP.
//!
//! The server is deliberately boring: `std::net` + one thread per
//! connection (no async runtime — the workspace's vendored-deps rule),
//! sharing one read-only [`Node`] behind an `Arc`. Each connection owns
//! its serve scratch and its registered probe batch, so connections
//! never contend beyond the metrics counters (relaxed atomics).
//!
//! Fault discipline mirrors the wire codec's: a malformed frame is
//! answered with a typed [`Frame::Error`] and the connection survives
//! when framing is still trustworthy (the checksum passed); a framing
//! violation closes the connection; nothing panics. Shutdown is a
//! frame, not a signal: [`Frame::Shutdown`] → [`Frame::ShutdownAck`] →
//! the accept loop exits — which is how the CI smoke job and the demo
//! example stop their nodes without `pkill`.

use crate::error::CatalogdError;
use crate::wire::{
    decode_probes, holds_frame, ErrorCode, Frame, ProbeBatch, WireError, PROTOCOL_VERSION,
};
use partsj::PartSjConfig;
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tsj_catalog::snapshot::encode_shard_map;
use tsj_catalog::SnapshotReader;
use tsj_cluster::{Node, NodeScratch, ProbeCtx, Topology};
use tsj_obs::{labeled, Counter, Histogram, MetricsRegistry};
use tsj_tree::{LabelInterner, Tree};

/// How a server process maps itself into the node set.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// This process's node id, `0 ≤ node < nodes`.
    pub node: usize,
    /// Total nodes in the set.
    pub nodes: usize,
    /// Copies per shard (clamped to the node count, like the in-process
    /// cluster).
    pub replication: usize,
    /// The join configuration requests are served under. Clients plan
    /// only from `tau`, so this stays server-side; the default matches
    /// `Cluster::join` with `PartSjConfig::default()`.
    pub join_config: PartSjConfig,
}

impl ServerConfig {
    /// Node `node` of `nodes` with `replication` copies per shard and
    /// the default join configuration.
    pub fn new(node: usize, nodes: usize, replication: usize) -> ServerConfig {
        ServerConfig {
            node,
            nodes,
            replication,
            join_config: PartSjConfig::default(),
        }
    }
}

/// The per-server metric handles (`tsj_catalogd_*`, node-labeled).
#[derive(Debug)]
struct ServerCells {
    connections: Counter,
    frames: Counter,
    /// Socket writes: frames ÷ flushes is the mean burst depth served.
    flushes: Counter,
    joins: Counter,
    probe_batches: Counter,
    errors: Counter,
    /// Serve time of one `JoinShard`, in microseconds.
    join_serve_us: Histogram,
}

/// Handles to every open connection, so the accept loop can sever them
/// when it exits. Without this, an in-thread server's handler threads
/// would keep serving pooled client connections after `stop()` — the
/// opposite of what "the node is down" means to a test or a pool
/// validity ping. (A real `catalogd` process gets the same effect from
/// process exit.)
#[derive(Debug, Default)]
struct ConnTable {
    next: AtomicU64,
    open: Mutex<HashMap<u64, TcpStream>>,
}

impl ConnTable {
    /// Registers a connection; returns `None` (untracked) if the handle
    /// cannot be cloned.
    fn track(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.open.lock().expect("conn table lock").insert(id, clone);
        Some(id)
    }

    fn untrack(&self, id: Option<u64>) {
        if let Some(id) = id {
            self.open.lock().expect("conn table lock").remove(&id);
        }
    }

    /// Severs every open connection (graceful FIN — replies already
    /// written are still delivered).
    fn close_all(&self) {
        for (_, stream) in self.open.lock().expect("conn table lock").drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Everything connection threads share, read-only (metrics are interior
/// atomics).
#[derive(Debug)]
struct NodeState {
    node_id: u32,
    nodes: u32,
    replication: u32,
    tau: u32,
    shard_count: u32,
    tree_count: u32,
    snapshot_hash: u64,
    owned_shards: Vec<u32>,
    shard_map_bytes: Vec<u8>,
    labels: LabelInterner,
    node: Node,
    join_config: PartSjConfig,
    registry: MetricsRegistry,
    cells: ServerCells,
    conns: ConnTable,
}

/// A bound, not-yet-serving catalog node.
#[derive(Debug)]
pub struct Catalogd {
    state: Arc<NodeState>,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
}

impl Catalogd {
    /// Restores node `cfg.node`'s owned shard sections from `snapshot`
    /// and binds `addr` (use port 0 to let the OS pick). The snapshot's
    /// identity is its [`SnapshotReader::digest`], and every section the
    /// node reads is hashed once, so no byte is hashed twice and the
    /// shards of other nodes are not hashed at all. Placement is
    /// the same round-robin topology the in-process cluster uses, so a
    /// node set started with identical `nodes`/`replication` agrees on
    /// who owns what without any coordination. The bytes the restored
    /// side keeps are exported by part, as the gauges
    /// `tsj_catalogd_resident_bytes{node,part}` (`part` is `index`,
    /// `side_list` or `verify`).
    pub fn bind(
        snapshot: Vec<u8>,
        cfg: &ServerConfig,
        addr: &str,
    ) -> Result<Catalogd, CatalogdError> {
        let reader = SnapshotReader::from_bytes(snapshot)?;
        let topology = Topology::new(reader.shard_count(), cfg.nodes, cfg.replication)?;
        if cfg.node >= cfg.nodes {
            return Err(CatalogdError::Handshake {
                context: format!("node id {} out of range for {} nodes", cfg.node, cfg.nodes),
            });
        }
        let owned_shards = topology.shards_of(cfg.node);
        let node = Node::restore(cfg.node, &reader, &owned_shards)?;
        let labels = reader.labels()?;
        let shard_map_bytes = encode_shard_map(&reader.shard_map()?);
        let registry = MetricsRegistry::new();
        let n = cfg.node;
        let cells = ServerCells {
            connections: registry.counter(&labeled("tsj_catalogd_connections_total", "node", n)),
            frames: registry.counter(&labeled("tsj_catalogd_frames_total", "node", n)),
            flushes: registry.counter(&labeled("tsj_catalogd_flushes_total", "node", n)),
            joins: registry.counter(&labeled("tsj_catalogd_joins_served_total", "node", n)),
            probe_batches: registry.counter(&labeled(
                "tsj_catalogd_probe_batches_total",
                "node",
                n,
            )),
            errors: registry.counter(&labeled("tsj_catalogd_errors_total", "node", n)),
            join_serve_us: registry.histogram(&labeled("tsj_catalogd_join_serve_us", "node", n)),
        };
        for (part, bytes) in node.frozen().heap_bytes().parts() {
            let family = format!("tsj_catalogd_resident_bytes{{node=\"{n}\",part=\"{part}\"}}");
            registry.gauge(&family).set(bytes as i64);
        }
        let state = Arc::new(NodeState {
            node_id: cfg.node as u32,
            nodes: cfg.nodes as u32,
            replication: topology.replication() as u32,
            tau: reader.tau(),
            shard_count: reader.shard_count() as u32,
            tree_count: reader.tree_count() as u32,
            snapshot_hash: reader.digest(),
            owned_shards,
            shard_map_bytes,
            labels,
            node,
            join_config: cfg.join_config,
            registry,
            cells,
            conns: ConnTable::default(),
        });
        let listener = TcpListener::bind(addr).map_err(|e| CatalogdError::Io {
            kind: e.kind(),
            context: format!("binding {addr}"),
        })?;
        Ok(Catalogd {
            state,
            listener,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, CatalogdError> {
        self.listener.local_addr().map_err(|e| CatalogdError::Io {
            kind: e.kind(),
            context: "reading bound address".into(),
        })
    }

    /// Serves until a [`Frame::Shutdown`] arrives. One thread per
    /// connection; the accepting thread is the caller's.
    pub fn run(self) -> Result<(), CatalogdError> {
        let addr = self.local_addr()?;
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let state = Arc::clone(&self.state);
            let stop = Arc::clone(&self.stop);
            let conn_id = state.conns.track(&stream);
            std::thread::spawn(move || {
                handle_conn(Arc::clone(&state), stream, stop, addr);
                state.conns.untrack(conn_id);
            });
        }
        // The node is going down: sever open connections so clients see
        // a dead node, not a half-alive one (process exit would do the
        // same for a standalone `catalogd`).
        self.state.conns.close_all();
        Ok(())
    }

    /// Runs the serve loop on a background thread — the in-process form
    /// the tests, the demo example and the bit-identity suite use.
    pub fn spawn(self) -> Result<RunningServer, CatalogdError> {
        let addr = self.local_addr()?;
        let stop = Arc::clone(&self.stop);
        let handle = std::thread::spawn(move || {
            let _ = self.run();
        });
        Ok(RunningServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }
}

/// A serve loop running on a background thread.
#[derive(Debug)]
pub struct RunningServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl RunningServer {
    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop, joins its thread, and severs any open
    /// connections — after this returns the node is fully dead, like a
    /// standalone `catalogd` process that exited.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// A connection's read buffer, and the reply bytes that force a flush.
const CONN_BUF: usize = 64 * 1024;

/// Longest a reply waits for the rest of its burst: a client's reply
/// timeout must keep meaning "this request is slow", not "long burst".
const MAX_HOLD: Duration = Duration::from_millis(1);

/// Per-connection serve state: the registered probe batch and the serve
/// scratch, plus an interner clone so wire labels remap injectively
/// onto the snapshot's ids.
struct ConnState {
    interner: LabelInterner,
    probes: Vec<Tree>,
    ctxs: Vec<ProbeCtx>,
    scratch: NodeScratch,
}

fn handle_conn(state: Arc<NodeState>, stream: TcpStream, stop: Arc<AtomicBool>, addr: SocketAddr) {
    state.cells.connections.inc();
    stream.set_nodelay(true).ok();
    let mut conn = ConnState {
        interner: state.labels.clone(),
        probes: Vec::new(),
        ctxs: Vec::new(),
        scratch: NodeScratch::default(),
    };
    // Buffered both ways: a pipelined burst of k requests costs about
    // one `read` and one `write` instead of 2k + k.
    let mut reader = BufReader::with_capacity(CONN_BUF, &stream);
    let mut out: Vec<u8> = Vec::new();
    let mut held_since = None;
    loop {
        let request = Frame::read_from(&mut reader);
        // After `Shutdown`, or a peer of another version, the reply is
        // the last frame of the connection.
        let last = matches!(
            request,
            Ok(Frame::Shutdown) | Err(WireError::VersionMismatch { .. })
        );
        let shutdown = matches!(request, Ok(Frame::Shutdown));
        let reply = match request {
            Ok(frame) => {
                state.cells.frames.inc();
                respond(&state, &mut conn, frame)
            }
            Err(WireError::VersionMismatch { peer }) => Frame::Error {
                code: ErrorCode::VersionMismatch,
                message: format!("server speaks version {PROTOCOL_VERSION}, client {peer}"),
            },
            Err(e) if e.desyncs_stream() => break,
            Err(WireError::UnknownType { tag }) => Frame::Error {
                code: ErrorCode::UnknownFrameType,
                message: format!(
                    "frame type {tag:#04x} is not known to version {PROTOCOL_VERSION}"
                ),
            },
            // Checksummed but undecodable payload: framing is still
            // trustworthy, answer typed and keep serving.
            Err(e) => Frame::Error {
                code: ErrorCode::BadRequest,
                message: e.to_string(),
            },
        };
        if matches!(reply, Frame::Error { .. }) {
            state.cells.errors.inc();
        }
        reply.encode_into(&mut out);
        // Flush as soon as the next read could block (no further complete
        // request is buffered): a lone request is answered at once, a
        // burst in one write, bounded in bytes and time held.
        if last
            || !holds_frame(reader.buffer())
            || out.len() >= CONN_BUF
            || held_since.get_or_insert_with(Instant::now).elapsed() >= MAX_HOLD
        {
            state.cells.flushes.inc();
            if (&stream).write_all(&out).is_err() {
                return;
            }
            out.clear();
            held_since = None;
        }
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop so the process can exit.
            let _ = TcpStream::connect(addr);
        }
        if last {
            return;
        }
    }
    // Requests answered before framing was lost are owed their replies.
    let _ = (&stream).write_all(&out);
}

/// Computes the reply to one decoded frame. Pure protocol logic — all
/// I/O stays in [`handle_conn`].
fn respond(state: &NodeState, conn: &mut ConnState, frame: Frame) -> Frame {
    match frame {
        Frame::Hello {
            version,
            snapshot_hash,
        } => {
            if version != PROTOCOL_VERSION {
                return Frame::Error {
                    code: ErrorCode::VersionMismatch,
                    message: format!("server speaks version {PROTOCOL_VERSION}, client {version}"),
                };
            }
            if snapshot_hash != 0 && snapshot_hash != state.snapshot_hash {
                return Frame::Error {
                    code: ErrorCode::SnapshotMismatch,
                    message: format!(
                        "server snapshot {:#018x}, client expects {snapshot_hash:#018x}",
                        state.snapshot_hash
                    ),
                };
            }
            Frame::HelloAck {
                version: PROTOCOL_VERSION,
                snapshot_hash: state.snapshot_hash,
                node: state.node_id,
                nodes: state.nodes,
                replication: state.replication,
                tau: state.tau,
                shard_count: state.shard_count,
                tree_count: state.tree_count,
                owned_shards: state.owned_shards.clone(),
                shard_map: state.shard_map_bytes.clone(),
            }
        }
        Frame::ProbeBatch(batch) => register_probes(state, conn, batch, true),
        Frame::Probe { batch } => register_probes(state, conn, batch, false),
        Frame::JoinShard {
            probe,
            shard,
            tau,
            classes,
        } => {
            if tau > state.tau {
                return Frame::Error {
                    code: ErrorCode::TauExceedsFrozen,
                    message: format!("tau {tau} exceeds frozen {}", state.tau),
                };
            }
            let Some(ctx) = conn.ctxs.get(probe as usize) else {
                return Frame::Error {
                    code: ErrorCode::UnknownProbe,
                    message: format!(
                        "probe {probe} not registered ({} in batch)",
                        conn.ctxs.len()
                    ),
                };
            };
            let req = tsj_cluster::ShardRequest {
                probe,
                shard,
                classes,
            };
            let start = Instant::now();
            match state
                .node
                .serve(&req, ctx, tau, &state.join_config, &mut conn.scratch)
            {
                Ok(resp) => {
                    state.cells.joins.inc();
                    state
                        .cells
                        .join_serve_us
                        .record(start.elapsed().as_micros() as u64);
                    Frame::JoinShardResp {
                        probe: resp.probe,
                        matches: resp.matches,
                        stats: resp.stats,
                    }
                }
                Err(tsj_cluster::ClusterError::ShardNotOwned { node, shard }) => Frame::Error {
                    code: ErrorCode::ShardNotOwned,
                    message: format!("node {node} does not own shard {shard}"),
                },
                Err(e @ tsj_cluster::ClusterError::ClassNotOwned { .. }) => Frame::Error {
                    code: ErrorCode::BadRequest,
                    message: e.to_string(),
                },
                Err(e) => Frame::Error {
                    code: ErrorCode::Internal,
                    message: e.to_string(),
                },
            }
        }
        Frame::Metrics => {
            let mut text = tsj_obs::export::to_prometheus(&state.registry.snapshot());
            let global = tsj_obs::global();
            if global.is_enabled() {
                text.push_str(&tsj_obs::export::to_prometheus(&global.snapshot()));
            }
            Frame::MetricsResp { text }
        }
        Frame::Health => Frame::HealthAck {
            node: state.node_id,
            owned_shards: state.owned_shards.len() as u32,
        },
        Frame::Shutdown => Frame::ShutdownAck,
        // Server-bound connections never expect responses or acks.
        other => Frame::Error {
            code: ErrorCode::BadRequest,
            message: format!("unexpected frame {other:?} on a server connection"),
        },
    }
}

fn register_probes(
    state: &NodeState,
    conn: &mut ConnState,
    batch: ProbeBatch,
    replace: bool,
) -> Frame {
    // Novel probe labels pile up in the connection's interner. A
    // replacing batch drops every tree that could hold their ids: the
    // one point where it can fall back to the snapshot's labels.
    let mut fresh = (replace && conn.interner.len() > interner_cap(state.labels.len()))
        .then(|| state.labels.clone());
    match decode_probes(&batch, fresh.as_mut().unwrap_or(&mut conn.interner)) {
        Ok(mut trees) => {
            if replace {
                conn.probes.clear();
            }
            if let Some(fresh) = fresh {
                conn.interner = fresh;
            }
            conn.probes.append(&mut trees);
            // Re-prepare the whole batch so `VerifyData::batch`
            // sees the same inputs the in-process router gives it.
            conn.ctxs = ProbeCtx::batch(&conn.probes, &state.join_config);
            state.cells.probe_batches.inc();
            Frame::ProbeAck {
                count: conn.ctxs.len() as u32,
            }
        }
        Err(e) => Frame::Error {
            code: ErrorCode::BadRequest,
            message: e.to_string(),
        },
    }
}

/// Labels a connection's interner may hold before it is reset: a
/// multiple of the snapshot's own, floored for tiny snapshots.
fn interner_cap(snapshot_labels: usize) -> usize {
    4 * snapshot_labels.max(256)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_probes;
    use tsj_catalog::Catalog;
    use tsj_cluster::plan_requests;
    use tsj_shard::ShardConfig;
    use tsj_ted::JoinStats;

    fn counters(stats: &JoinStats) -> (u64, u64, u64, Vec<(&'static str, u64)>) {
        let mut stages: Vec<_> = stats
            .stage_counts
            .iter()
            .map(|s| (s.stage, s.count))
            .collect();
        stages.sort_unstable();
        (
            stats.candidates,
            stats.ted_calls,
            stats.pairs_examined,
            stages,
        )
    }

    /// The value of the series `name` (family and labels, as exported)
    /// in Prometheus `text`.
    fn series(text: &str, name: &str) -> Option<i64> {
        let line = text.lines().find(|line| line.starts_with(name))?;
        line.rsplit(' ').next()?.parse().ok()
    }

    /// A `JoinShard` naming a size class the shard map gives another
    /// shard than the addressed one reaches trees the node does not hold:
    /// it is refused with a typed `BadRequest`, counted once, and the
    /// connection goes on serving the planned request.
    #[test]
    fn a_class_of_another_shard_is_refused_typed_and_counted() {
        use std::io::Write as _;
        const SHARDS: usize = 4;
        let trees = tsj_datagen::swissprot_like(60, 9);
        let labels = crate::interner_for(&trees);
        let catalog = Catalog::freeze(
            trees.clone(),
            labels.clone(),
            1,
            &PartSjConfig::default(),
            &ShardConfig::with_shards(SHARDS),
        );
        // Node 0 of 2 at R = 1 owns the even shards.
        let server = Catalogd::bind(
            catalog.to_bytes(),
            &ServerConfig::new(0, 2, 1),
            "127.0.0.1:0",
        )
        .and_then(Catalogd::spawn)
        .expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("dial");
        let mut call = |frame: Frame| {
            stream.write_all(&frame.encode()).expect("send");
            Frame::read_from(&mut stream).expect("a reply")
        };
        let hello = call(Frame::Hello {
            version: PROTOCOL_VERSION,
            snapshot_hash: 0,
        });
        assert!(matches!(hello, Frame::HelloAck { .. }), "{hello:?}");
        let probes = trees[..8].to_vec();
        let batch = encode_probes(&probes, &labels).expect("batch");
        assert_eq!(call(Frame::ProbeBatch(batch)), Frame::ProbeAck { count: 8 });

        let map = catalog.index().shard_map();
        let requests = plan_requests(&probes, 1, map, SHARDS);
        let req = requests
            .iter()
            .find(|r| r.shard % 2 == 0)
            .expect("node 0 has work");
        let foreign = (1..).find(|&c| map.shard_of(c, SHARDS) != req.shard as usize);
        let foreign = foreign.expect("four shards split the classes");
        let join = |classes: Vec<u32>| Frame::JoinShard {
            probe: req.probe,
            shard: req.shard,
            tau: 1,
            classes,
        };
        let mut classes = req.classes.clone();
        classes.push(foreign);
        match call(join(classes)) {
            Frame::Error {
                code: ErrorCode::BadRequest,
                message,
            } => assert!(
                message.contains(&format!("size class {foreign}")),
                "{message}"
            ),
            other => panic!("a foreign class must be refused, got {other:?}"),
        }
        let served = call(join(req.classes.clone()));
        assert!(matches!(served, Frame::JoinShardResp { .. }), "{served:?}");

        let Frame::MetricsResp { text } = call(Frame::Metrics) else {
            panic!("metrics");
        };
        assert_eq!(
            series(&text, "tsj_catalogd_errors_total{node=\"0\"}"),
            Some(1)
        );
        let resident = |part: &str| {
            series(
                &text,
                &format!("tsj_catalogd_resident_bytes{{node=\"0\",part=\"{part}\"}}"),
            )
        };
        assert!(resident("index") > Some(0) && resident("verify") > Some(0));
        assert!(resident("side_list").is_some());
    }

    /// ROADMAP 4e: every batch on a pooled connection brings labels no
    /// batch before it used. The connection's interner must stay bounded
    /// — and a reset must never change an answer.
    #[test]
    fn fresh_labels_forever_leave_the_interner_bounded_and_joins_identical() {
        const SHARDS: usize = 4;
        let trees = tsj_datagen::swissprot_like(30, 5);
        let labels = crate::interner_for(&trees);
        let config = PartSjConfig::default();
        let catalog = Catalog::freeze(
            trees.clone(),
            labels.clone(),
            1,
            &config,
            &ShardConfig::with_shards(SHARDS),
        );
        let server = Catalogd::bind(
            catalog.to_bytes(),
            &ServerConfig::new(0, 1, 1),
            "127.0.0.1:0",
        )
        .expect("bind");
        let state = &*server.state;
        let mut conn = ConnState {
            interner: state.labels.clone(),
            probes: Vec::new(),
            ctxs: Vec::new(),
            scratch: NodeScratch::default(),
        };
        let bound = interner_cap(state.labels.len()) + 2;
        let mut resets = 0;

        for round in 0..10_000usize {
            // Two catalog trees, one node of each renamed to a label no
            // batch has used: each still matches its original.
            let mut client_labels = labels.clone();
            let probes: Vec<Tree> = (0..2)
                .map(|k| {
                    let mut nodes = trees[(round + 7 * k) % trees.len()].flatten();
                    let renamed = (round + k) % nodes.len();
                    nodes[renamed].0 = client_labels.intern(&format!("novel-{round}-{k}"));
                    Tree::from_flattened(&nodes).expect("same shape")
                })
                .collect();
            let reference = catalog
                .join(&probes, 1, &config, &ShardConfig::default())
                .expect("reference join");
            assert!(
                reference.pairs.len() >= 2,
                "round {round}: the originals match"
            );

            let before = conn.interner.len();
            let batch = encode_probes(&probes, &client_labels).expect("batch");
            let ack = respond(state, &mut conn, Frame::ProbeBatch(batch));
            assert_eq!(ack, Frame::ProbeAck { count: 2 });
            assert!(
                conn.interner.len() <= bound,
                "round {round}: {} labels",
                conn.interner.len()
            );
            resets += usize::from(conn.interner.len() < before);

            let mut pairs = Vec::new();
            let mut folded = JoinStats::default();
            for req in plan_requests(&probes, 1, catalog.index().shard_map(), SHARDS) {
                let reply = respond(
                    state,
                    &mut conn,
                    Frame::JoinShard {
                        probe: req.probe,
                        shard: req.shard,
                        tau: 1,
                        classes: req.classes,
                    },
                );
                let Frame::JoinShardResp { matches, stats, .. } = reply else {
                    panic!("round {round}: {reply:?}");
                };
                pairs.extend(matches.into_iter().map(|i| (i, req.probe)));
                folded.merge_partial(&stats);
            }
            pairs.sort_unstable();
            assert_eq!(pairs, reference.pairs, "round {round}: pairs");
            assert_eq!(
                counters(&folded),
                counters(&reference.stats),
                "round {round}"
            );
        }
        assert!(
            resets > 10,
            "the bound was reached and enforced: {resets} resets"
        );
    }
}
