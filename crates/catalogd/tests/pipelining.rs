//! Pipelining, seen from outside the client: a raw socket that writes a
//! whole conversation before reading any of it must get the same
//! replies, in the same order, as one that takes turns; a lone request
//! is never held back waiting for more; joins far larger than any
//! buffer on the path stay complete and bit-identical; and the server's
//! flush counter shows the bursts it saw.

mod common;

use partsj::PartSjConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use tsj_catalog::Catalog;
use tsj_catalogd::wire::{encode_probes, Frame, PROTOCOL_VERSION};
use tsj_catalogd::{Catalogd, ClientConfig, ClusterClient, RunningServer, ServerConfig};
use tsj_cluster::plan_requests;
use tsj_datagen::SyntheticParams;
use tsj_shard::ShardConfig;

fn spawn_node(snapshot: &[u8], node: usize, nodes: usize) -> RunningServer {
    Catalogd::bind(
        snapshot.to_vec(),
        &ServerConfig::new(node, nodes, 1),
        "127.0.0.1:0",
    )
    .expect("bind")
    .spawn()
    .expect("spawn")
}

fn dial(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("dial");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// Reads one reply and returns it re-encoded with the two wall-clock
/// fields of a `JoinShardResp` zeroed — everything else a server sends
/// is a pure function of the conversation so far.
fn read_reply(stream: &mut TcpStream) -> Vec<u8> {
    match Frame::read_from(stream).expect("a reply per request") {
        Frame::JoinShardResp {
            probe,
            matches,
            mut stats,
        } => {
            stats.candidate_time = Duration::ZERO;
            stats.verify_time = Duration::ZERO;
            Frame::JoinShardResp {
                probe,
                matches,
                stats,
            }
        }
        other => other,
    }
    .encode()
}

/// A checksummed frame whose type tag no server of this version knows.
fn unknown_frame() -> Vec<u8> {
    let body = [0x7F_u8, 1, 2, 3];
    let mut bytes = (body.len() as u32 + 8).to_le_bytes().to_vec();
    bytes.extend_from_slice(&body);
    bytes.extend_from_slice(&tsj_catalog::format::checksum(&body).to_le_bytes());
    bytes
}

/// (a) `Hello + ProbeBatch + k × JoinShard + Health` in one write, with
/// an unregistered probe and an unknown frame type in the middle: the
/// k + 3 replies are the turn-taking conversation's, frame for frame —
/// each error in its request's slot, everything behind it still served.
#[test]
fn a_burst_is_answered_like_the_same_requests_one_at_a_time() {
    let (snapshot, catalog_trees, _) = common::freeze_demo(120, 2, 8, 2015);
    let (probes, labels) = common::probe_batch(&catalog_trees, 6, 6, 3);
    let catalog = Catalog::from_bytes(snapshot.clone()).expect("catalog");
    let requests = plan_requests(&probes, 2, catalog.index().shard_map(), 8);
    assert!(requests.len() >= 20, "a burst worth the name");

    let mut conversation: Vec<Vec<u8>> = vec![
        Frame::Hello {
            version: PROTOCOL_VERSION,
            snapshot_hash: 0,
        }
        .encode(),
        Frame::ProbeBatch(encode_probes(&probes, &labels).expect("batch")).encode(),
    ];
    for (i, req) in requests.iter().enumerate() {
        if i == requests.len() / 3 {
            conversation.push(
                Frame::JoinShard {
                    probe: probes.len() as u32 + 5,
                    shard: req.shard,
                    tau: 2,
                    classes: req.classes.clone(),
                }
                .encode(),
            );
        }
        if i == 2 * requests.len() / 3 {
            conversation.push(unknown_frame());
        }
        conversation.push(
            Frame::JoinShard {
                probe: req.probe,
                shard: req.shard,
                tau: 2,
                classes: req.classes.clone(),
            }
            .encode(),
        );
    }
    conversation.push(Frame::Health.encode());

    let server = spawn_node(&snapshot, 0, 1);
    let mut turns = dial(server.addr());
    let one_at_a_time: Vec<Vec<u8>> = conversation
        .iter()
        .map(|request| {
            turns.write_all(request).expect("request out");
            read_reply(&mut turns)
        })
        .collect();

    let mut burst = dial(server.addr());
    burst
        .write_all(&conversation.concat())
        .expect("whole conversation out");
    let pipelined: Vec<Vec<u8>> = conversation
        .iter()
        .map(|_| read_reply(&mut burst))
        .collect();

    assert_eq!(pipelined.len(), requests.len() + 5);
    for (slot, (got, want)) in pipelined.iter().zip(&one_at_a_time).enumerate() {
        assert_eq!(got, want, "reply {slot} of the burst");
    }
    let errors = pipelined
        .iter()
        .filter(|reply| matches!(Frame::decode(reply), Ok((Frame::Error { .. }, _))))
        .count();
    assert_eq!(errors, 2, "UnknownProbe and UnknownFrameType, nothing else");
    assert!(matches!(
        Frame::decode(pipelined.last().expect("replies")),
        Ok((Frame::HealthAck { .. }, _))
    ));
}

/// (b) The flush rule never waits for input that has not arrived: a
/// lone `Health` on an idle connection — and one followed by only the
/// first half of another frame — is answered at once.
#[test]
fn a_lone_request_is_answered_at_once() {
    let (snapshot, _, _) = common::freeze_demo(40, 1, 4, 11);
    let server = spawn_node(&snapshot, 0, 1);
    let mut stream = dial(server.addr());
    let health = Frame::Health.encode();

    for round in 0..3 {
        let sent = Instant::now();
        stream.write_all(&health).expect("health out");
        assert!(matches!(
            Frame::read_from(&mut stream),
            Ok(Frame::HealthAck { .. })
        ));
        assert!(
            sent.elapsed() < Duration::from_millis(100),
            "round {round}: lone Health took {:?}",
            sent.elapsed()
        );
    }

    let (head, tail) = health.split_at(health.len() / 2);
    let sent = Instant::now();
    stream
        .write_all(&[&health[..], head].concat())
        .expect("a frame and a half out");
    assert!(matches!(
        Frame::read_from(&mut stream),
        Ok(Frame::HealthAck { .. })
    ));
    assert!(
        sent.elapsed() < Duration::from_millis(100),
        "the complete frame's reply waited for the incomplete one: {:?}",
        sent.elapsed()
    );
    stream.write_all(tail).expect("the other half out");
    assert!(matches!(
        Frame::read_from(&mut stream),
        Ok(Frame::HealthAck { .. })
    ));
}

/// (c) A join whose requests are many times the client's in-flight cap
/// and whose replies are many times a socket buffer goes burst by burst
/// without either side blocking on the other, and without one node's
/// replies piling up unread while the other's are read (which stalls
/// the stream past the 50 ms request timeout — seen one run in five
/// with 32 KiB of requests in flight): no retry, `Complete`,
/// bit-identical to `Catalog::join`.
#[test]
fn a_join_far_larger_than_any_buffer_stays_bit_identical() {
    // Tiny trees over one label: every probe has many neighbours.
    let params = SyntheticParams {
        fanout: 3,
        depth: 3,
        labels: 1,
        avg_size: 6,
        decay: 0.1,
    };
    let catalog_trees = tsj_datagen::synthetic(400, &params, 7);
    let probes = tsj_datagen::synthetic(2_400, &params, 8);
    let (snapshot, labels) = common::freeze_trees(&catalog_trees, 2, 8);
    let catalog = Catalog::from_bytes(snapshot.clone()).expect("catalog");
    let reference = catalog
        .join(
            &probes,
            2,
            &PartSjConfig::default(),
            &ShardConfig::default(),
        )
        .expect("reference join");
    assert!(
        reference.pairs.len() > 10 * probes.len(),
        "dense matches: {} pairs",
        reference.pairs.len()
    );
    let requests = plan_requests(&probes, 2, catalog.index().shard_map(), 8);
    assert!(requests.len() > 10_000, "{} requests", requests.len());

    let servers: Vec<RunningServer> = (0..2).map(|n| spawn_node(&snapshot, n, 2)).collect();
    let addrs: Vec<SocketAddr> = servers.iter().map(RunningServer::addr).collect();
    let mut client = ClusterClient::connect(&addrs, ClientConfig::default()).expect("connect");
    let joined = client.join(&probes, &labels, 2).expect("tcp join");
    assert!(
        joined.is_complete(),
        "degraded: {} (probe, class) pairs unserved after {} faults",
        joined.degraded.as_ref().map_or(0, |d| d.unserved.len()),
        joined.telemetry.faults
    );
    assert_eq!(joined.telemetry.retries, 0, "no spurious timeouts");
    common::assert_bit_identical(&joined.outcome, &reference, "2 400 probes");
}

/// Sum of a node-labeled counter in a Prometheus exposition.
fn counter(text: &str, name: &str) -> u64 {
    text.lines()
        .filter_map(|line| line.strip_prefix(name)?.strip_prefix('{'))
        .filter_map(|rest| rest.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// The mechanism is visible in the server's own metrics: after one
/// pipelined join a node has written fewer times than it read frames.
#[test]
fn flushes_count_bursts_not_frames() {
    let (snapshot, catalog_trees, _) = common::freeze_demo(150, 2, 8, 2015);
    let (probes, labels) = common::probe_batch(&catalog_trees, 10, 6, 5);
    let servers: Vec<RunningServer> = (0..2).map(|n| spawn_node(&snapshot, n, 2)).collect();
    let addrs: Vec<SocketAddr> = servers.iter().map(RunningServer::addr).collect();
    let mut client = ClusterClient::connect(&addrs, ClientConfig::default()).expect("connect");
    let joined = client.join(&probes, &labels, 2).expect("tcp join");
    assert!(joined.is_complete());

    for n in 0..2 {
        let text = client.node_metrics_text(n).expect("metrics");
        tsj_obs::export::validate_prometheus(&text).expect("valid exposition");
        let frames = counter(&text, "tsj_catalogd_frames_total");
        let flushes = counter(&text, "tsj_catalogd_flushes_total");
        let joins = counter(&text, "tsj_catalogd_joins_served_total");
        assert!(joins > 4, "node {n} served a burst: {joins} requests");
        assert!(
            flushes >= 1 && flushes <= frames,
            "node {n}: {flushes} vs {frames}"
        );
        assert!(
            flushes + joins / 2 < frames,
            "node {n}: {flushes} flushes for {frames} frames ({joins} of them one join's requests)"
        );
    }
}

/// A raw client may also read nothing until the server has hung up:
/// `Shutdown` flushes what is owed before the loop stops.
#[test]
fn shutdown_flushes_the_burst_before_it() {
    let (snapshot, _, _) = common::freeze_demo(40, 1, 4, 11);
    let server = spawn_node(&snapshot, 0, 1);
    let mut stream = dial(server.addr());
    let burst = [
        Frame::Health.encode(),
        Frame::Health.encode(),
        Frame::Shutdown.encode(),
    ]
    .concat();
    stream.write_all(&burst).expect("burst out");
    let mut replies = Vec::new();
    stream
        .read_to_end(&mut replies)
        .expect("until the server hangs up");
    let mut rest = &replies[..];
    let mut decoded = Vec::new();
    while !rest.is_empty() {
        let (frame, used) = Frame::decode(rest).expect("whole frames only");
        decoded.push(frame);
        rest = &rest[used..];
    }
    assert!(matches!(
        decoded[..],
        [
            Frame::HealthAck { .. },
            Frame::HealthAck { .. },
            Frame::ShutdownAck
        ]
    ));
}
