//! `serve_tcp`: a frozen catalog served by two in-thread `Catalogd` nodes
//! on loopback, one closed-loop `ClusterClient` issuing 16-probe joins.
//!
//! One operation is one `ClusterClient::join` of a 16-probe batch, cycled
//! from a fixed pool (half light mutants of catalog trees, half fresh
//! trees). Closed loop with one client, because `ClusterClient::join`
//! blocks per call and is the only client the repo ships. The oracle is
//! single-node `Catalog::join` on the same batch, computed in set-up on
//! the catalog *before* it went through the snapshot bytes: every TCP join
//! must be `Complete` and agree on pairs and candidate count.
//!
//! The traced run takes each batch through every layer between
//! `Catalog::join` and the socket — single-node join, point queries, plan,
//! probe preparation, per-request `Node::serve`, in-process `Cluster`,
//! wire codec, and a raw `TcpStream` speaking the public `wire` frames —
//! back to back, so the layer ratios are taken under the same host
//! conditions.

use crate::gen::{self, CollectionSpec};
use crate::harness::{self, Rounds, RunArgs, Scale, Windowing};
use crate::metrics::Report;
use crate::oracle::same_counters;
use crate::spans::{self, Recorder};
use crate::stats;
use partsj::{PartSjConfig, VerifyEngine};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;
use tsj_catalog::{Catalog, QueryScratch, SnapshotReader};
use tsj_catalogd::wire::{decode_probes, encode_probes, Frame, PROTOCOL_VERSION};
use tsj_catalogd::{Catalogd, ClientConfig, ClusterClient, RunningServer, ServerConfig};
use tsj_cluster::{
    plan_requests, Cluster, ClusterConfig, ClusterJoin, Node, NodeScratch, ProbeCtx, ShardRequest,
    Topology,
};
use tsj_shard::{FrozenJoinScratch, ShardConfig};
use tsj_ted::{JoinStats, TreeIdx};
use tsj_tree::{LabelInterner, Tree};

const TAU: u32 = 2;
const SHARDS: usize = 8;
const NODES: usize = 2;
const REPLICATION: usize = 1;
/// Probes per join.
const BATCH: usize = 16;
/// How the timed section is summarized: windows of 256 joins (two cycles
/// of the full-scale pool) carry a p95 with ten samples beyond it.
const WINDOWING: Windowing = Windowing {
    window: 256,
    tail_q: 0.95,
    trees_per_op: BATCH as f64,
};
/// Raw-socket `Health` round trips per node in the traced run.
const PINGS: usize = 200;

/// `(catalog trees, pool probes)`.
fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (4_000, 2_048),
        Scale::Tiny => (300, 64),
    }
}

fn shard_cfg() -> ShardConfig {
    ShardConfig {
        shards: SHARDS,
        probe_threads: 1,
        verify_threads: 1,
        ..ShardConfig::default()
    }
}

/// What single-node `Catalog::join` says about one batch.
struct Expected {
    pairs: Vec<(TreeIdx, TreeIdx)>,
    stats: JoinStats,
}

/// Wall times of the set-up steps that are layers of their own, ms.
#[derive(Default)]
struct SetupTimes {
    freeze_ms: f64,
    to_bytes_ms: f64,
    from_bytes_ms: f64,
    connect_ms: f64,
}

// Field order is drop order: the client hangs up before the servers stop.
struct Setup {
    client: ClusterClient,
    /// Held for their `Drop`, which stops the accept loops and joins them.
    _servers: Vec<RunningServer>,
    addrs: Vec<SocketAddr>,
    labels: LabelInterner,
    batches: Vec<Vec<Tree>>,
    expected: Vec<Expected>,
    /// The catalog as restored from the snapshot bytes.
    catalog: Catalog,
    bytes: Vec<u8>,
    topology: Topology,
    times: SetupTimes,
    /// Frames each node must have counted by now: every frame the client
    /// and the raw-socket replay sent, tallied on the sending side.
    frames_sent: [u64; NODES],
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn set_up(args: &RunArgs) -> Setup {
    let config = PartSjConfig::default();
    let (catalog_trees, pool_probes) = sizes(args.scale);
    let spec = CollectionSpec::SWISSPROT;
    let trees = gen::collection(catalog_trees, &spec, args.seed);
    let pool = gen::probe_pool(&trees, pool_probes, TAU, &spec, args.seed);
    // Generated labels are raw ids `1..=spec.labels`; the wire ships
    // strings. Interning one name per id, in id order, resolves every label
    // either side uses to the same raw id.
    let mut labels = LabelInterner::new();
    for id in 1..=spec.labels {
        let label = labels.intern(&format!("L{id}"));
        assert_eq!(label.raw(), id, "interner ids follow insertion order");
    }
    let batches: Vec<Vec<Tree>> = pool.chunks(BATCH).map(<[Tree]>::to_vec).collect();

    let mut times = SetupTimes::default();
    let t = Instant::now();
    let frozen = Catalog::freeze(trees, labels.clone(), TAU, &config, &shard_cfg());
    times.freeze_ms = ms_since(t);

    // The oracle, from the catalog as frozen — before snapshot, restore,
    // router or wire touched it.
    let mut expected: Vec<Expected> = batches
        .iter()
        .map(|batch| {
            let outcome = frozen
                .join(batch, TAU, &config, &shard_cfg())
                .expect("tau equals the frozen tau");
            Expected {
                pairs: outcome.pairs,
                stats: outcome.stats,
            }
        })
        .collect();
    if args.corrupt_oracle {
        expected[0].stats.candidates += 1;
    }

    let t = Instant::now();
    let bytes = frozen.to_bytes();
    times.to_bytes_ms = ms_since(t);
    drop(frozen);
    let t = Instant::now();
    let catalog = Catalog::from_bytes(bytes.clone()).expect("a snapshot just written restores");
    times.from_bytes_ms = ms_since(t);

    let servers: Vec<RunningServer> = (0..NODES)
        .map(|node| {
            Catalogd::bind(
                bytes.clone(),
                &ServerConfig::new(node, NODES, REPLICATION),
                "127.0.0.1:0",
            )
            .and_then(Catalogd::spawn)
            .expect("binding a loopback catalogd node")
        })
        .collect();
    let addrs: Vec<SocketAddr> = servers.iter().map(RunningServer::addr).collect();
    let t = Instant::now();
    let mut client_cfg = ClientConfig::default();
    // A co-tenant can stall this sandbox for longer than the shipped 50 ms
    // request timeout; a benchmark operation must not fail for that.
    client_cfg.retry.request_timeout_ms = 5_000;
    client_cfg.retry.probe_deadline_ms = 30_000;
    let client = ClusterClient::connect(&addrs, client_cfg).expect("connecting to both nodes");
    times.connect_ms = ms_since(t);

    let topology = Topology::new(SHARDS, NODES, REPLICATION).expect("two nodes");
    let mut setup = Setup {
        client,
        _servers: servers,
        addrs,
        labels,
        batches,
        expected,
        catalog,
        bytes,
        topology,
        times,
        // `connect` sent one Hello per node.
        frames_sent: [1; NODES],
    };
    // Warm-up: pooled connections, server-side scratch, allocator arenas.
    let warm = setup.batches.len().min(32);
    let mut scratch = Report::default();
    for b in 0..warm {
        client_join(&mut setup, b, &mut scratch);
    }
    setup
}

/// The node a shard's requests go to (replication 1: its only holder).
fn owner(topology: &Topology, shard: u32) -> usize {
    topology.replicas(shard)[0]
}

fn plan(setup: &Setup, batch: usize) -> Vec<ShardRequest> {
    plan_requests(
        &setup.batches[batch],
        TAU,
        setup.catalog.index().shard_map(),
        SHARDS,
    )
}

/// Checks one routed join against the batch's oracle: `Complete`, same
/// pairs, same candidate count and stage counters.
fn check_routed(
    report: &mut Report,
    expected: &Expected,
    what: &str,
    join: Result<ClusterJoin, String>,
) {
    let verdict = match &join {
        Err(e) => Err(format!("{what}: {e}")),
        Ok(j) if !j.is_complete() => Err(format!("{what}: degraded {:?}", j.degraded)),
        Ok(j) if j.outcome.pairs != expected.pairs => Err(format!(
            "{what}: {} pairs, Catalog::join has {}",
            j.outcome.pairs.len(),
            expected.pairs.len()
        )),
        Ok(j) if !same_counters(&j.outcome.stats, &expected.stats) => Err(format!(
            "{what}: counters {:?}, Catalog::join has {:?}",
            j.outcome.stats, expected.stats
        )),
        Ok(_) => Ok(()),
    };
    report.check(verdict.is_ok(), || verdict.unwrap_err());
}

/// One `ClusterClient::join` of batch `b`, checked; returns its latency in
/// seconds and the router's `(retries, failovers)`.
fn client_join(setup: &mut Setup, b: usize, report: &mut Report) -> (f64, u64, u64) {
    let t = Instant::now();
    let join = setup.client.join(&setup.batches[b], &setup.labels, TAU);
    let latency = t.elapsed().as_secs_f64();
    // What the client put on the wire: per addressed node, the probe batch
    // once and one JoinShard per request.
    let mut per_node = [0u64; NODES];
    for req in plan(setup, b) {
        per_node[owner(&setup.topology, req.shard)] += 1;
    }
    for (n, &requests) in per_node.iter().enumerate() {
        if requests > 0 {
            setup.frames_sent[n] += 1 + requests;
        }
    }
    let (retries, failovers) = join
        .as_ref()
        .map_or((0, 0), |j| (j.telemetry.retries, j.telemetry.failovers));
    let join = join.map_err(|e| e.to_string());
    check_routed(report, &setup.expected[b], "ClusterClient::join", join);
    (latency, retries, failovers)
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Report {
    let (mut setup, setup_s) = harness::repeat_setup(|| set_up(args));
    let mut report = Report::default();
    if args.trace {
        traced(&mut setup, args, &mut report);
    } else {
        let mut next = 0usize;
        let latencies = harness::timed_section(args, &WINDOWING, || {
            let batch = next % setup.batches.len();
            next += 1;
            client_join(&mut setup, batch, &mut report).0
        });
        harness::report_end_to_end(&mut report, setup_s, &latencies, &WINDOWING);
    }
    report
}

/// One raw connection speaking the public wire codec.
struct RawConn {
    stream: TcpStream,
}

impl RawConn {
    fn open(addr: SocketAddr) -> Result<RawConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("dialing {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        Ok(RawConn { stream })
    }

    /// One request/response round trip.
    fn call(&mut self, frame_bytes: &[u8]) -> Result<Frame, String> {
        std::io::Write::write_all(&mut self.stream, frame_bytes).map_err(|e| e.to_string())?;
        Frame::read_from(&mut self.stream).map_err(|e| e.to_string())
    }
}

/// What one node's share of a raw-socket replay produced.
#[derive(Default)]
struct RawNode {
    /// `(span name, start ns, end ns)` of every round trip, in order.
    calls: Vec<(&'static str, u64, u64)>,
    /// Candidate + verify time each response reported, µs.
    server_us: Vec<f64>,
    matches: Vec<(TreeIdx, TreeIdx)>,
    stats: JoinStats,
    problem: Option<String>,
}

/// Registers the batch on `conn` and sends `requests` one round trip at a
/// time — what `TcpTransport` does per node, through the public codec.
fn raw_node(
    conn: &mut RawConn,
    batch_frame: &[u8],
    probes: usize,
    requests: &[&ShardRequest],
    now_ns: impl Fn() -> u64,
) -> RawNode {
    let mut out = RawNode::default();
    if requests.is_empty() {
        return out;
    }
    let start = now_ns();
    let ack = conn.call(batch_frame);
    out.calls.push(("catalogd.probe_register", start, now_ns()));
    if !matches!(ack, Ok(Frame::ProbeAck { count }) if count as usize == probes) {
        out.problem = Some(format!("ProbeBatch answered {ack:?}"));
        return out;
    }
    for req in requests {
        let frame = Frame::JoinShard {
            probe: req.probe,
            shard: req.shard,
            tau: TAU,
            classes: req.classes.clone(),
        }
        .encode();
        let start = now_ns();
        let resp = conn.call(&frame);
        out.calls.push(("catalogd.join_shard", start, now_ns()));
        match resp {
            Ok(Frame::JoinShardResp {
                probe,
                matches,
                stats,
            }) => {
                out.server_us
                    .push((stats.candidate_time + stats.verify_time).as_secs_f64() * 1e6);
                out.matches.extend(matches.iter().map(|&i| (i, probe)));
                out.stats.merge_partial(&stats);
            }
            other => out.problem = Some(format!("JoinShard answered {other:?}")),
        }
    }
    out
}

/// Sum of every `name{…} value` sample in a Prometheus exposition.
fn prometheus_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|line| line.starts_with(name) && !line.starts_with('#'))
        .filter(|line| matches!(line.as_bytes().get(name.len()), Some(b'{' | b' ')))
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// The traced run: every batch goes through every layer once per cycle.
fn traced(setup: &mut Setup, args: &RunArgs, report: &mut Report) {
    let config = PartSjConfig::default();
    let cycles = match args.scale {
        Scale::Full => (args.seconds / 4.0).max(1.0) as usize,
        Scale::Tiny => 1,
    };
    let reader = SnapshotReader::from_bytes(setup.bytes.clone()).expect("snapshot parses");
    let nodes: Vec<Node> = (0..NODES)
        .map(|n| Node::restore(n, &reader, &setup.topology.shards_of(n)).expect("node restores"))
        .collect();
    let mut cluster =
        Cluster::from_snapshot(setup.bytes.clone(), &ClusterConfig::new(NODES, REPLICATION))
            .expect("in-process cluster restores");
    let mut raw: Vec<RawConn> = Vec::new();
    for (n, &addr) in setup.addrs.iter().enumerate() {
        let mut conn = RawConn::open(addr).expect("raw connection");
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            snapshot_hash: 0,
        };
        let ack = conn.call(&hello.encode());
        report.check(matches!(ack, Ok(Frame::HelloAck { .. })), || {
            format!("raw Hello to node {n}: {ack:?}")
        });
        setup.frames_sent[n] += 1;
        raw.push(conn);
    }

    let mut rec = Recorder::new();
    // Raw-socket floor: Health → HealthAck.
    let health = Frame::Health.encode();
    for (n, conn) in raw.iter_mut().enumerate() {
        for _ in 0..PINGS {
            let s = rec.enter("catalogd.ping");
            let ack = conn.call(&health);
            rec.exit(s);
            report.check(matches!(ack, Ok(Frame::HealthAck { .. })), || {
                format!("raw Health to node {n}: {ack:?}")
            });
            setup.frames_sent[n] += 1;
        }
    }

    let mut verify = VerifyEngine::new(TAU, &config);
    let mut join_scratch = FrozenJoinScratch::new();
    let mut pairs = Vec::new();
    let mut query_engine = VerifyEngine::with_filters(TAU, &config.verify);
    let mut query_scratch = QueryScratch::default();
    let mut hits = Vec::new();
    let mut node_scratch = NodeScratch::default();
    let mut server_interner = setup.catalog.labels().clone();

    // Per batch round, µs by name (ratios are taken per round); and the
    // self time of every single call, ns by name.
    let mut rounds = Rounds::default();
    let mut calls: BTreeMap<&'static str, Vec<f64>> = spans::self_time_by_name(rec.spans());
    let mut server_us: Vec<f64> = Vec::new();
    let (mut requests_total, mut shards_total, mut probes_total) = (0usize, 0usize, 0usize);
    let (mut retries, mut failovers, mut frame_bytes) = (0u64, 0u64, 0usize);
    let mut kept_spans = rec.spans().len();
    let mut total_spans = kept_spans;

    for cycle in 0..cycles {
        for b in 0..setup.batches.len() {
            let mut row = BTreeMap::new();
            let round = cycle * setup.batches.len() + b;

            // The three one-call entry points, untraced.
            let (latency, r, f) = client_join(setup, b, report);
            row.insert("serve", latency * 1e6);
            retries += r;
            failovers += f;
            let t = Instant::now();
            let join = cluster.join(&setup.batches[b], TAU, &config);
            row.insert("cluster.join", t.elapsed().as_secs_f64() * 1e6);
            check_routed(
                report,
                &setup.expected[b],
                "Cluster::join",
                join.map_err(|e| e.to_string()),
            );
            let t = Instant::now();
            let stats = setup
                .catalog
                .join_with_scratch(
                    &setup.batches[b],
                    TAU,
                    &config,
                    &mut verify,
                    &mut join_scratch,
                    &mut pairs,
                )
                .expect("tau equals the frozen tau");
            row.insert("catalog.join", t.elapsed().as_secs_f64() * 1e6);
            let expected = &setup.expected[b];
            report.check(pairs == expected.pairs && same_counters(&stats, &expected.stats), || {
                format!("restored Catalog::join_with_scratch disagrees with the frozen catalog on batch {b}")
            });

            // The staged replay.
            rec.set_request(round as u32);
            let first_span = rec.spans().len();
            let root = rec.enter("bench.serve_replay");
            let batch = &setup.batches[b];

            for probe in batch {
                let s = rec.enter("catalog.query");
                let result = setup.catalog.query_into(
                    probe,
                    &config,
                    &mut query_engine,
                    &mut query_scratch,
                    &mut hits,
                );
                rec.exit(s);
                report.check(result.is_ok(), || {
                    format!("Catalog::query_into: {result:?}")
                });
                let (lo, hi) = partsj::window_of(probe.len() as u32, TAU);
                let mut shard_set = Vec::new();
                setup.catalog.index().shard_set(lo, hi, &mut shard_set);
                shards_total += shard_set.len();
            }
            probes_total += batch.len();

            let s = rec.enter("cluster.plan");
            let requests = plan(setup, b);
            rec.exit(s);
            requests_total += requests.len();

            let s = rec.enter("cluster.probe_prep");
            let ctxs = ProbeCtx::batch(batch, &config);
            rec.exit(s);

            // Every request through `Node::serve` on a restored node: the
            // union must be the single-node join, bit for bit.
            let mut union: Vec<(TreeIdx, TreeIdx)> = Vec::new();
            let mut folded = JoinStats::default();
            for req in &requests {
                let node = &nodes[owner(&setup.topology, req.shard)];
                let s = rec.enter("cluster.node_serve");
                let served = node.serve(
                    req,
                    &ctxs[req.probe as usize],
                    TAU,
                    &config,
                    &mut node_scratch,
                );
                rec.exit(s);
                match served {
                    Ok(resp) => {
                        union.extend(resp.matches.iter().map(|&i| (i, resp.probe)));
                        folded.merge_partial(&resp.stats);
                    }
                    Err(e) => report.check(false, || format!("Node::serve: {e}")),
                }
            }
            union.sort_unstable();
            union.dedup();
            report.check(
                union == expected.pairs && same_counters(&folded, &expected.stats),
                || format!("Node::serve replay of batch {b} is not bit-identical to Catalog::join"),
            );

            // Wire codec, both directions.
            let s = rec.enter("catalogd.encode_batch");
            let encoded =
                encode_probes(batch, &setup.labels).map(|p| Frame::ProbeBatch(p).encode());
            rec.exit(s);
            let batch_frame = encoded.expect("every probe label is interned");
            frame_bytes = frame_bytes.max(batch_frame.len());
            let s = rec.enter("catalogd.decode_batch");
            let decoded = Frame::decode(&batch_frame).map(|(frame, _)| match frame {
                Frame::ProbeBatch(p) => decode_probes(&p, &mut server_interner).map(|t| t.len()),
                _ => Ok(0),
            });
            rec.exit(s);
            report.check(matches!(decoded, Ok(Ok(n)) if n == batch.len()), || {
                format!("wire round trip of batch {b}: {decoded:?}")
            });

            // The same requests over raw sockets, both nodes at once like
            // the client's scatter: register the batch, then one JoinShard
            // round trip per request. Workers stamp their calls against
            // the recorder's epoch; the spans are filed when they join.
            let epoch = rec.epoch();
            let now_ns = move || epoch.elapsed().as_nanos() as u64;
            let topology = &setup.topology;
            let scatter = rec.enter("bench.raw_scatter");
            let per_node: Vec<RawNode> = std::thread::scope(|scope| {
                let workers: Vec<_> = raw
                    .iter_mut()
                    .enumerate()
                    .map(|(n, conn)| {
                        let mine: Vec<&ShardRequest> = requests
                            .iter()
                            .filter(|r| owner(topology, r.shard) == n)
                            .collect();
                        let batch_frame = &batch_frame;
                        scope.spawn(move || raw_node(conn, batch_frame, batch.len(), &mine, now_ns))
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("raw-socket worker panicked"))
                    .collect()
            });
            rec.exit(scatter);
            let mut union: Vec<(TreeIdx, TreeIdx)> = Vec::new();
            let mut folded = JoinStats::default();
            let mut slowest_node_us = 0.0f64;
            for (n, node) in per_node.into_iter().enumerate() {
                setup.frames_sent[n] += node.calls.len() as u64;
                let mut node_ns = 0;
                for (name, start, end) in node.calls {
                    rec.record_child(scatter, name, start, end);
                    node_ns += end - start;
                }
                slowest_node_us = slowest_node_us.max(node_ns as f64 / 1e3);
                server_us.extend(node.server_us);
                union.extend(node.matches);
                folded.merge_partial(&node.stats);
                if let Some(problem) = node.problem {
                    report.check(false, || format!("raw socket to node {n}: {problem}"));
                }
            }
            rec.exit(root);
            union.sort_unstable();
            union.dedup();
            report.check(
                union == expected.pairs && same_counters(&folded, &expected.stats),
                || format!("raw-socket replay of batch {b} is not bit-identical to Catalog::join"),
            );

            let spans = &rec.spans()[first_span..];
            for (name, own) in spans::self_time_by_name(spans) {
                row.insert(name, own.iter().sum::<f64>() / 1e3);
                calls.entry(name).or_default().extend(own);
            }
            // What the client's blocking path adds up to: encode once, then
            // the slower node's registration and round trips (the client
            // drives the two nodes in parallel).
            row.insert("waterfall", row["catalogd.encode_batch"] + slowest_node_us);
            let scatter = spans
                .iter()
                .find(|s| s.name == "bench.raw_scatter")
                .expect("recorded above");
            row.insert(
                "traced_path",
                row["catalogd.encode_batch"] + scatter.duration_ns() as f64 / 1e3,
            );
            rounds.push(row);
            total_spans += rec.spans().len() - first_span;
            // The trace file keeps the first cycle's first rounds.
            if round < 64 {
                kept_spans = rec.spans().len();
            } else {
                rec.truncate(kept_spans);
            }
        }
    }

    // Reconcile what the servers counted with what was sent.
    let metrics = Frame::Metrics.encode();
    let (mut server_frames, mut server_errors) = (0.0, 0.0);
    for (n, conn) in raw.iter_mut().enumerate() {
        setup.frames_sent[n] += 1;
        match conn.call(&metrics) {
            Ok(Frame::MetricsResp { text }) => {
                let frames = prometheus_sum(&text, "tsj_catalogd_frames_total");
                let errors = prometheus_sum(&text, "tsj_catalogd_errors_total");
                let sent = setup.frames_sent[n] as f64;
                report.check(frames == sent && errors == 0.0, || {
                    format!("node {n} counted {frames} frames and {errors} errors; {sent} frames were sent")
                });
                server_frames += frames;
                server_errors += errors;
            }
            other => report.check(false, || format!("raw Metrics to node {n}: {other:?}")),
        }
    }

    let quiet_us = |name: &str| rounds.quiet(name);
    let ratio = |num: &str, den: &str| rounds.ratio(num, den);
    // Calls of one kind differ in work (probe size, candidates), so a single
    // call's cost is the median over calls, not the quiet decile.
    let per_call_us = |name: &str| {
        calls
            .get(name)
            .map_or(0.0, |v| stats::median(&mut v.clone()) / 1e3)
    };

    let trees = setup.catalog.len() as f64;
    report.set("catalog.freeze_ms", setup.times.freeze_ms);
    report.set("catalog.to_bytes_ms", setup.times.to_bytes_ms);
    report.set("catalog.from_bytes_ms", setup.times.from_bytes_ms);
    report.set("catalog.snapshot_bytes", setup.bytes.len() as f64);
    report.set(
        "catalog.snapshot_bytes_per_tree",
        setup.bytes.len() as f64 / trees,
    );
    report.set("catalog.join_ms", quiet_us("catalog.join") / 1e3);
    report.set("catalog.query_us", per_call_us("catalog.query"));
    report.set("cluster.plan_us", quiet_us("cluster.plan"));
    report.set(
        "cluster.requests_per_join",
        requests_total as f64 / rounds.len() as f64,
    );
    report.set("cluster.probe_prep_us", quiet_us("cluster.probe_prep"));
    report.set("cluster.node_serve_us", per_call_us("cluster.node_serve"));
    report.set("cluster.join_ms", quiet_us("cluster.join") / 1e3);
    report.set("cluster.router_tax", ratio("cluster.join", "catalog.join"));
    report.set("cluster.retries", retries as f64);
    report.set("cluster.failovers", failovers as f64);
    report.set("catalogd.connect_ms", setup.times.connect_ms);
    report.set(
        "catalogd.encode_batch_us",
        quiet_us("catalogd.encode_batch"),
    );
    report.set("catalogd.batch_frame_bytes", frame_bytes as f64);
    report.set(
        "catalogd.decode_batch_us",
        quiet_us("catalogd.decode_batch"),
    );
    report.set("catalogd.ping_rtt_us", per_call_us("catalogd.ping"));
    report.set(
        "catalogd.probe_register_us",
        per_call_us("catalogd.probe_register"),
    );
    report.set(
        "catalogd.join_shard_rtt_us",
        per_call_us("catalogd.join_shard"),
    );
    report.set(
        "catalogd.join_shard_server_us",
        stats::median(&mut server_us),
    );
    report.set("catalogd.server_frames", server_frames);
    report.set("catalogd.server_errors", server_errors);
    report.set("catalogd.wire_tax", ratio("serve", "cluster.join"));
    report.set("catalogd.waterfall_coverage", ratio("waterfall", "serve"));
    report.set(
        "shard.fanout_shards",
        shards_total as f64 / probes_total as f64,
    );
    // Traced blocking path (encode, then the raw scatter with its thread
    // spawn and join) over the untraced `ClusterClient::join`.
    report.set("obs.trace_overhead_ratio", ratio("traced_path", "serve"));
    report.set("obs.trace_base_us", quiet_us("serve"));
    report.set("obs.spans_recorded", total_spans as f64);

    spans::write_trace(args.trace_dir.as_deref(), "serve_tcp", rec.spans());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_samples_are_summed_by_exact_name() {
        let text = "# TYPE tsj_catalogd_frames_total counter\n\
                    tsj_catalogd_frames_total{node=\"0\"} 41\n\
                    tsj_catalogd_frames_total_extra{node=\"0\"} 1000\n\
                    tsj_catalogd_errors_total{node=\"0\"} 0\n";
        assert_eq!(prometheus_sum(text, "tsj_catalogd_frames_total"), 41.0);
        assert_eq!(prometheus_sum(text, "tsj_catalogd_errors_total"), 0.0);
        assert_eq!(prometheus_sum(text, "absent"), 0.0);
    }
}
