//! The TCP cluster client: the scatter/gather router over pooled
//! connections.
//!
//! [`ClusterClient`] is to a `catalogd` node set what
//! [`tsj_cluster::Cluster`] is to in-process nodes — and owns the same
//! [`Router`]: planning, replica choice, retry/backoff, per-probe
//! deadlines, health marking, per-node metrics and the typed
//! `Complete`/`Degraded` outcome all run through [`Router::join`], and
//! the shared accessors are the router's ([`ClusterClient::router`]).
//! The client adds the addresses, the connection pool and what the
//! handshake established; only the transport differs. Where the
//! in-process transport consults a deterministic fault injector,
//! [`TcpTransport`] meets *real* faults and maps them onto the same
//! [`Fault`] vocabulary:
//!
//! * refused / reset / closed connection → [`Fault::NodeDown`] —
//!   immediate failover, node marked unhealthy;
//! * socket read timeout → [`Fault::Timeout`] for the request awaited —
//!   charged `request_timeout_ms` against the probe's deadline (the
//!   connection is dropped: a late response would desync the stream, so
//!   whatever else was unanswered on it is `NodeDown`);
//! * a server [`Frame::Error`] with [`ErrorCode::Internal`] →
//!   [`Fault::Transient`] for that request — retried with backoff;
//! * any other server error or protocol violation → a fatal
//!   [`ClusterError`] (these are bugs or misconfigurations, not faults
//!   to retry through).
//!
//! The scatter is pipelined: the server answers a connection strictly
//! in order, so each node's share of a join goes out as one burst in
//! one write and the replies are read back in request order, all on
//! the calling thread (see "Pipelining" in `docs/PROTOCOL.md`).
//!
//! Because the router is shared, the bit-identity contract extends
//! across the wire: a TCP join's pairs, candidate counts and
//! filter-stage counters are property-tested identical to
//! `Cluster::join` and single-node `Catalog::join`.

use crate::error::CatalogdError;
use crate::pool::{round_trip, ConnPool};
use crate::wire::{
    encode_join_shard, encode_probes, ErrorCode, Frame, WireError, PROTOCOL_VERSION,
};
use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use tsj_cluster::{
    AttemptOutcome, Clock, ClusterError, ClusterJoin, Fault, NodeTransport, RetryPolicy, Router,
    ShardRequest, ShardResponse, Topology,
};
use tsj_obs::SystemClock;
use tsj_tree::{LabelInterner, Tree};

/// Client tuning.
#[derive(Debug, Default)]
pub struct ClientConfig {
    /// Retry/backoff/deadline policy — same shape and defaults as the
    /// in-process cluster's.
    pub retry: RetryPolicy,
}

/// Seed of the client's deterministic backoff jitter.
const BACKOFF_SEED: u64 = 0xCA7A_106D;

/// What one node advertised in its [`Frame::HelloAck`].
#[derive(Debug, Clone)]
struct NodeFacts {
    snapshot_hash: u64,
    nodes: u32,
    replication: u32,
    tau: u32,
    shard_count: u32,
    tree_count: u32,
    owned_shards: Vec<u32>,
    shard_map: Vec<u8>,
}

/// A scatter/gather join client over a `catalogd` node set.
#[derive(Debug)]
pub struct ClusterClient {
    addrs: Vec<SocketAddr>,
    pool: ConnPool,
    /// The router state; nodes that did not answer the handshake start
    /// dead.
    router: Router,
    tree_count: usize,
    snapshot_hash: u64,
}

impl ClusterClient {
    /// Connects to every node (`addrs[n]` is node `n`), handshakes, and
    /// cross-checks what the set advertises: one protocol version, one
    /// snapshot hash, one (nodes, replication, tau, shard count).
    /// Placement is taken from the nodes' *advertised* owned shards, so
    /// the client follows what the servers actually hold. Nodes that
    /// cannot be reached come up unhealthy (requests fail over to
    /// replicas) — as long as at least one answers.
    pub fn connect(
        addrs: &[SocketAddr],
        cfg: ClientConfig,
    ) -> Result<ClusterClient, CatalogdError> {
        if addrs.is_empty() {
            return Err(CatalogdError::Handshake {
                context: "no node addresses given".into(),
            });
        }
        let pool = ConnPool::new();
        let mut facts: Vec<Option<NodeFacts>> = vec![None; addrs.len()];
        for (n, &addr) in addrs.iter().enumerate() {
            match hello(&pool, addr, 0) {
                Ok((got_node, node_facts)) => {
                    if got_node as usize != n {
                        return Err(CatalogdError::Handshake {
                            context: format!(
                                "{addr} answered as node {got_node}, expected node {n} \
                                 (address order must match node ids)"
                            ),
                        });
                    }
                    facts[n] = Some(node_facts);
                }
                Err(CatalogdError::Io { .. }) | Err(CatalogdError::Wire(_)) => {
                    // Unreachable now; it may come back — start it dead.
                }
                Err(e) => return Err(e),
            }
        }
        let Some(reference) = facts.iter().flatten().next().cloned() else {
            return Err(CatalogdError::Handshake {
                context: "no node answered the handshake".into(),
            });
        };
        if reference.nodes as usize != addrs.len() {
            return Err(CatalogdError::Handshake {
                context: format!(
                    "nodes advertise a {}-node set but {} addresses were given",
                    reference.nodes,
                    addrs.len()
                ),
            });
        }
        for (n, f) in facts.iter().enumerate() {
            let Some(f) = f else { continue };
            if (
                f.snapshot_hash,
                f.nodes,
                f.replication,
                f.tau,
                f.shard_count,
            ) != (
                reference.snapshot_hash,
                reference.nodes,
                reference.replication,
                reference.tau,
                reference.shard_count,
            ) {
                return Err(CatalogdError::Handshake {
                    context: format!("node {n} disagrees with the set: {f:?} vs {reference:?}"),
                });
            }
        }
        let topology = assemble_topology(addrs.len(), reference.shard_count as usize, &facts)?;
        let map = tsj_catalog::snapshot::decode_shard_map(
            &reference.shard_map,
            reference.shard_count as usize,
        )?;
        let mut router = Router::new(
            topology,
            map,
            reference.tau,
            cfg.retry,
            BACKOFF_SEED,
            Arc::new(SystemClock::new()),
        );
        for n in (0..addrs.len()).filter(|&n| facts[n].is_none()) {
            router.kill_node(n);
        }
        Ok(ClusterClient {
            addrs: addrs.to_vec(),
            pool,
            router,
            tree_count: reference.tree_count as usize,
            snapshot_hash: reference.snapshot_hash,
        })
    }

    /// Scatter/gather join of `probes` against the node set at
    /// threshold `tau ≤ tau_frozen` — [`Router::join`] over TCP, the twin
    /// of [`tsj_cluster::Cluster::join`]: same typed outcome, same
    /// degradation contract. `labels` must resolve every probe label
    /// (the interner the probes were parsed with).
    pub fn join(
        &mut self,
        probes: &[Tree],
        labels: &LabelInterner,
        tau: u32,
    ) -> Result<ClusterJoin, CatalogdError> {
        let clock = Arc::clone(self.router.clock());
        let _join_span = tsj_obs::tracer().span(&clock, "catalogd.join", "catalogd");
        let batch_frame = Frame::ProbeBatch(encode_probes(probes, labels)?).encode();
        let mut transport = TcpTransport {
            pool: &self.pool,
            addrs: &self.addrs,
            batch_frame,
            probe_count: probes.len() as u32,
            request_timeout_ms: self.router.retry().request_timeout_ms,
            clock: &*clock,
            conns: (0..self.addrs.len()).map(|_| None).collect(),
            burst: Vec::new(),
        };
        Ok(self.router.join(&mut transport, probes, tau)?)
    }

    /// The router: health, topology, per-node metrics, clock and the
    /// frozen τ.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The router, to kill nodes or swap the clock (a virtual one for
    /// deterministic accounting).
    pub fn router_mut(&mut self) -> &mut Router {
        &mut self.router
    }

    /// Catalog trees in the served snapshot.
    pub fn tree_count(&self) -> usize {
        self.tree_count
    }

    /// The snapshot hash the node set agreed on.
    pub fn snapshot_hash(&self) -> u64 {
        self.snapshot_hash
    }

    /// Re-handshakes node `n` and, on success, marks it healthy again —
    /// the client-side recovery step after a restarted process. Pooled
    /// connections from before the failure are evicted first.
    pub fn reconnect(&mut self, n: usize) -> Result<(), CatalogdError> {
        let addr = *self.addrs.get(n).ok_or_else(|| CatalogdError::Handshake {
            context: format!("no node {n}"),
        })?;
        self.pool.evict_addr(addr);
        let (got_node, facts) = hello(&self.pool, addr, self.snapshot_hash)?;
        if got_node as usize != n {
            return Err(CatalogdError::Handshake {
                context: format!("{addr} answered as node {got_node}, expected {n}"),
            });
        }
        if facts.snapshot_hash != self.snapshot_hash {
            return Err(CatalogdError::Handshake {
                context: format!(
                    "node {n} restarted with snapshot {:#018x}, set serves {:#018x}",
                    facts.snapshot_hash, self.snapshot_hash
                ),
            });
        }
        self.router.revive_node(n);
        Ok(())
    }

    /// Fetches node `n`'s metrics export (the [`Frame::Metrics`] answer:
    /// Prometheus text ready for `tsj_obs::export::validate_prometheus`).
    pub fn node_metrics_text(&self, n: usize) -> Result<String, CatalogdError> {
        let addr = *self.addrs.get(n).ok_or_else(|| CatalogdError::Handshake {
            context: format!("no node {n}"),
        })?;
        let mut stream = self.pool.checkout(addr)?;
        match round_trip(&mut stream, &Frame::Metrics, 5_000)? {
            Frame::MetricsResp { text } => {
                self.pool.checkin(addr, stream, true);
                Ok(text)
            }
            other => Err(CatalogdError::Protocol {
                context: format!("expected MetricsResp, got {other:?}"),
            }),
        }
    }

    /// Sends [`Frame::Shutdown`] to node `n` and waits for the ack —
    /// how the smoke job and the demo stop server processes cleanly.
    pub fn shutdown_node(&mut self, n: usize) -> Result<(), CatalogdError> {
        let addr = *self.addrs.get(n).ok_or_else(|| CatalogdError::Handshake {
            context: format!("no node {n}"),
        })?;
        let mut stream = self.pool.checkout(addr)?;
        match round_trip(&mut stream, &Frame::Shutdown, 5_000)? {
            Frame::ShutdownAck => {
                self.router.kill_node(n);
                self.pool.evict_addr(addr);
                Ok(())
            }
            other => Err(CatalogdError::Protocol {
                context: format!("expected ShutdownAck, got {other:?}"),
            }),
        }
    }
}

/// One handshake round-trip against `addr`; the connection is pooled on
/// success.
fn hello(
    pool: &ConnPool,
    addr: SocketAddr,
    expect_hash: u64,
) -> Result<(u32, NodeFacts), CatalogdError> {
    let mut stream = pool.checkout(addr)?;
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        snapshot_hash: expect_hash,
    };
    let reply = round_trip(&mut stream, &hello, 5_000).map_err(|e| match e {
        CatalogdError::Wire(WireError::VersionMismatch { peer }) => CatalogdError::Handshake {
            context: format!("{addr} speaks version {peer}, client {PROTOCOL_VERSION}"),
        },
        other => other,
    })?;
    match reply {
        Frame::HelloAck {
            version,
            snapshot_hash,
            node,
            nodes,
            replication,
            tau,
            shard_count,
            tree_count,
            owned_shards,
            shard_map,
        } => {
            if version != PROTOCOL_VERSION {
                return Err(CatalogdError::Handshake {
                    context: format!("{addr} speaks version {version}, client {PROTOCOL_VERSION}"),
                });
            }
            pool.checkin(addr, stream, true);
            Ok((
                node,
                NodeFacts {
                    snapshot_hash,
                    nodes,
                    replication,
                    tau,
                    shard_count,
                    tree_count,
                    owned_shards,
                    shard_map,
                },
            ))
        }
        Frame::Error { code, message } => Err(CatalogdError::Server { code, message }),
        other => Err(CatalogdError::Protocol {
            context: format!("expected HelloAck, got {other:?}"),
        }),
    }
}

/// Builds the shard→replicas table from what the nodes advertise,
/// ordering each shard's holders primary-first by ring distance from
/// the shard's canonical primary `s mod N` — the order
/// [`Topology::new`]'s round-robin placement produces, so the TCP
/// client and the in-process cluster route identically. Shards some
/// holders did not advertise (a node that was down during connect) fall
/// back to the canonical round-robin slots for the advertised
/// replication factor.
fn assemble_topology(
    nodes: usize,
    shard_count: usize,
    facts: &[Option<NodeFacts>],
) -> Result<Topology, CatalogdError> {
    let replication = facts
        .iter()
        .flatten()
        .map(|f| f.replication as usize)
        .max()
        .unwrap_or(1);
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
    for (n, f) in facts.iter().enumerate() {
        let Some(f) = f else { continue };
        for &s in &f.owned_shards {
            if (s as usize) < shard_count {
                assignment[s as usize].push(n);
            }
        }
    }
    for (s, holders) in assignment.iter_mut().enumerate() {
        if holders.is_empty() {
            // No reachable node advertised this shard: assume the
            // canonical placement so retries can find it if its
            // holders come back.
            *holders = (0..replication.min(nodes))
                .map(|k| (s + k) % nodes)
                .collect();
        } else {
            let primary = s % nodes;
            holders.sort_by_key(|&h| (h + nodes - primary) % nodes);
        }
    }
    Topology::from_assignment(nodes, assignment).map_err(CatalogdError::from)
}

/// `JoinShard` bytes written to a node before its replies are read.
/// What has to fit a default socket buffer is the *replies* (several
/// times the requests' size), which wait unread in ours while another
/// node's are being read — a receive queue that overflows stalls the
/// stream for longer than a request timeout. Larger joins go burst by
/// burst. (The `ProbeBatch` frame is not counted: it goes first, while
/// the node has nothing to write.)
const MAX_IN_FLIGHT: usize = 4 * 1024;

/// Read timeout for a `ProbeAck`: registration prepares every probe of
/// the batch, which is not one request's work.
const PROBE_ACK_TIMEOUT_MS: u64 = 5_000;

/// A live connection to one node, its probe batch registered or sent.
#[derive(Debug)]
struct NodeConn {
    /// Replies come through the buffer, requests go to the stream.
    reader: BufReader<TcpStream>,
    /// The `ProbeAck` is still unread.
    awaiting_ack: bool,
    /// When the last burst went out or the last reply came in: where
    /// the next reply's `latency_ms` starts.
    last_ms: u64,
}

impl NodeConn {
    fn set_read_timeout(&self, ms: u64) {
        let timeout = Duration::from_millis(ms.max(1));
        self.reader.get_ref().set_read_timeout(Some(timeout)).ok();
    }
}

/// The TCP [`NodeTransport`]: one pooled connection per addressed node,
/// held for the duration of a join and driven from the calling thread —
/// one burst of requests per node, replies read back in request order;
/// real faults mapped onto the router's [`Fault`] vocabulary.
#[derive(Debug)]
pub struct TcpTransport<'a> {
    pool: &'a ConnPool,
    addrs: &'a [SocketAddr],
    /// The encoded [`Frame::ProbeBatch`], sent once per fresh
    /// connection so retries resend it only after a reconnect.
    batch_frame: Vec<u8>,
    probe_count: u32,
    request_timeout_ms: u64,
    clock: &'a dyn Clock,
    conns: Vec<Option<NodeConn>>,
    /// The burst being assembled, reused from burst to burst.
    burst: Vec<u8>,
}

impl Drop for TcpTransport<'_> {
    fn drop(&mut self) {
        for (n, conn) in self.conns.iter_mut().enumerate() {
            if let Some(conn) = conn.take() {
                let stream = conn.reader.into_inner();
                // Reset the read timeout before pooling: the next user
                // sets its own.
                stream.set_read_timeout(None).ok();
                self.pool.checkin(self.addrs[n], stream, true);
            }
        }
    }
}

impl TcpTransport<'_> {
    /// Writes the next burst of `rest` (indices into `requests`) to
    /// `node` — [`MAX_IN_FLIGHT`] bytes of `JoinShard` frames, behind
    /// the probe batch on a fresh connection — and returns how many
    /// requests it covers. A node that cannot be dialed or written to
    /// is left without a connection: `gather` reports it `NodeDown`.
    fn send(&mut self, node: usize, requests: &[ShardRequest], rest: &[usize], tau: u32) -> usize {
        self.burst.clear();
        if self.conns[node].is_none() {
            let Ok(stream) = self.pool.checkout(self.addrs[node]) else {
                return rest.len(); // none of it can be sent
            };
            self.burst.extend_from_slice(&self.batch_frame);
            self.conns[node] = Some(NodeConn {
                reader: BufReader::with_capacity(64 * 1024, stream),
                awaiting_ack: true,
                last_ms: 0,
            });
        }
        let conn = self.conns[node].as_mut().expect("connected above");
        let in_flight_from = self.burst.len();
        let mut taken = 0;
        for &r in rest {
            encode_join_shard(&mut self.burst, &requests[r], tau);
            taken += 1;
            if self.burst.len() - in_flight_from >= MAX_IN_FLIGHT {
                break;
            }
        }
        if conn.reader.get_mut().write_all(&self.burst).is_err() {
            self.conns[node] = None;
        } else {
            conn.last_ms = self.clock.now_ms();
        }
        taken
    }

    /// Reads the replies to the burst `send` just wrote to `node`, in
    /// request order, into `outcomes[r]`. Replies already read stay
    /// served; a timeout fails the request awaited and, like a reset,
    /// drops the connection, which fails every request still unanswered
    /// on it as [`Fault::NodeDown`]. An `Err` is fatal to the join.
    fn gather(
        &mut self,
        node: usize,
        requests: &[ShardRequest],
        burst: &[usize],
        timeout_ms: u64,
        outcomes: &mut [Option<AttemptOutcome>],
    ) -> Result<(), ClusterError> {
        let fatal = |context: String| Err(ClusterError::Topology { context });
        let mut unanswered = burst.iter();
        // `Ok(true)`: every reply read, the connection is still in sync.
        let kept = 'read: {
            let Some(conn) = self.conns[node].as_mut() else {
                break 'read Ok(false);
            };
            if conn.awaiting_ack {
                conn.set_read_timeout(PROBE_ACK_TIMEOUT_MS);
                match Frame::read_from(&mut conn.reader) {
                    Ok(Frame::ProbeAck { count }) if count == self.probe_count => {}
                    Ok(Frame::Error { code, message }) => {
                        break 'read fatal(format!("probe batch rejected ({code:?}): {message}"));
                    }
                    Ok(_) | Err(_) => break 'read Ok(false),
                }
                conn.awaiting_ack = false;
                // Registration is not charged to the first request.
                conn.last_ms = self.clock.now_ms();
            }
            conn.set_read_timeout(timeout_ms);
            for &r in unanswered.by_ref() {
                let req = &requests[r];
                outcomes[r] = Some(match Frame::read_from(&mut conn.reader) {
                    Ok(Frame::JoinShardResp {
                        probe,
                        matches,
                        stats,
                    }) if probe == req.probe => {
                        let now = self.clock.now_ms();
                        let latency_ms = now.saturating_sub(conn.last_ms);
                        conn.last_ms = now;
                        AttemptOutcome::Served {
                            resp: ShardResponse {
                                probe,
                                matches,
                                stats,
                            },
                            injected_delay_ms: 0,
                            latency_ms,
                        }
                    }
                    // This request's reply: the stream stays in sync.
                    Ok(Frame::Error {
                        code: ErrorCode::Internal,
                        ..
                    }) => AttemptOutcome::Failed(Fault::Transient),
                    Ok(other) => {
                        let probe = req.probe;
                        break 'read fatal(format!(
                            "expected probe {probe}'s JoinShardResp, got {other:?}"
                        ));
                    }
                    Err(e) => {
                        // A late response would desync the stream.
                        let timed_out = matches!(e, WireError::Io { kind, .. }
                            if matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut));
                        outcomes[r] = Some(AttemptOutcome::Failed(if timed_out {
                            Fault::Timeout
                        } else {
                            Fault::NodeDown
                        }));
                        break 'read Ok(false);
                    }
                });
            }
            Ok(true)
        };
        if !matches!(kept, Ok(true)) {
            self.conns[node] = None;
            for &r in unanswered {
                outcomes[r] = Some(AttemptOutcome::Failed(Fault::NodeDown));
            }
        }
        kept.map(drop)
    }
}

impl NodeTransport for TcpTransport<'_> {
    fn scatter(
        &mut self,
        requests: &[ShardRequest],
        per_node: &[Vec<usize>],
        tau: u32,
    ) -> Result<Vec<Option<AttemptOutcome>>, ClusterError> {
        let mut outcomes: Vec<Option<AttemptOutcome>> = requests.iter().map(|_| None).collect();
        // Per node, how many of its requests are sent. Each round writes
        // one burst per node, then reads the replies node by node: the
        // nodes serve side by side while this thread waits on the first.
        let mut sent = vec![0usize; per_node.len()];
        loop {
            let mut bursts = Vec::new();
            for (n, list) in per_node.iter().enumerate() {
                if sent[n] < list.len() {
                    let taken = self.send(n, requests, &list[sent[n]..], tau);
                    bursts.push((n, &list[sent[n]..][..taken]));
                    sent[n] += taken;
                }
            }
            if bursts.is_empty() {
                return Ok(outcomes);
            }
            for (n, burst) in bursts {
                let timeout = self.request_timeout_ms;
                if let Err(fatal) = self.gather(n, requests, burst, timeout, &mut outcomes) {
                    // Other nodes' replies are still in flight: none of
                    // these connections may return to the pool.
                    self.conns.fill_with(|| None);
                    return Err(fatal);
                }
                if self.conns[n].is_none() {
                    // Gone for this scatter: the unsent fail too.
                    for &r in &per_node[n][sent[n]..] {
                        outcomes[r] = Some(AttemptOutcome::Failed(Fault::NodeDown));
                    }
                    sent[n] = per_node[n].len();
                }
            }
        }
    }

    fn serve(
        &mut self,
        node: usize,
        req: &ShardRequest,
        _attempt: u32,
        tau: u32,
        deadline_left_ms: u64,
    ) -> Result<AttemptOutcome, ClusterError> {
        if deadline_left_ms == 0 {
            return Ok(AttemptOutcome::DeadlineExceeded);
        }
        let timeout = self.request_timeout_ms.min(deadline_left_ms);
        // The scatter's helpers, with a burst of one.
        let (requests, burst) = (std::slice::from_ref(req), [0]);
        let mut outcome = [None];
        self.send(node, requests, &burst, tau);
        self.gather(node, requests, &burst, timeout, &mut outcome)?;
        match outcome[0].take().expect("gather answers the whole burst") {
            // The socket timeout was capped at the remaining deadline:
            // if the cap was the deadline (not the request timeout), the
            // attempt ran out of *probe* budget, not request budget.
            AttemptOutcome::Failed(Fault::Timeout) if timeout < self.request_timeout_ms => {
                Ok(AttemptOutcome::DeadlineExceeded)
            }
            outcome => Ok(outcome),
        }
    }
}
