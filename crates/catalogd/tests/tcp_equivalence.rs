//! The cross-the-wire bit-identity contract: a TCP scatter/gather join
//! through real sockets must produce **exactly** what the in-process
//! cluster and the single-node catalog produce — pairs, candidate
//! counts, and every filter-stage counter — across node counts,
//! replication factors and thresholds, including after killing a real
//! server process at replication 2, after restarting a node in place,
//! and after losing a node part-way through a pipelined burst.

mod common;
/// The crafted checksum-valid snapshots, shared with the cluster suite.
#[path = "../../cluster/tests/common/mod.rs"]
mod crafted;

use common::{assert_bit_identical, Then};
use partsj::PartSjConfig;
use std::io::BufRead;
use std::net::SocketAddr;
use tsj_catalog::Catalog;
use tsj_catalogd::wire::ErrorCode;
use tsj_catalogd::{
    Catalogd, CatalogdError, ClientConfig, ClusterClient, RunningServer, ServerConfig,
};
use tsj_cluster::{plan_requests, Cluster, ClusterConfig};
use tsj_shard::ShardConfig;
use tsj_ted::JoinOutcome;

const SHARDS: usize = 8;
const FROZEN_TAU: u32 = 3;

fn spawn_node_set(snapshot: &[u8], nodes: usize, replication: usize) -> Vec<RunningServer> {
    (0..nodes)
        .map(|n| {
            Catalogd::bind(
                snapshot.to_vec(),
                &ServerConfig::new(n, nodes, replication),
                "127.0.0.1:0",
            )
            .expect("bind")
            .spawn()
            .expect("spawn")
        })
        .collect()
}

/// The full sweep: nodes × replication × tau, every TCP join held
/// against both the single-node catalog and the in-process cluster.
#[test]
fn tcp_join_is_bit_identical_across_the_sweep() {
    let (snapshot, catalog_trees, _) = common::freeze_demo(150, FROZEN_TAU, SHARDS, 2015);
    let (probes, probe_labels) = common::probe_batch(&catalog_trees, 20, 15, 77);
    let config = PartSjConfig::default();
    let catalog = Catalog::from_bytes(snapshot.clone()).expect("reference catalog");

    for &tau in &[0u32, 1, 3] {
        let reference = catalog
            .join(&probes, tau, &config, &ShardConfig::default())
            .expect("single-node reference");
        for &nodes in &[1usize, 2, 4] {
            for &replication in &[1usize, 2] {
                let context = format!("nodes={nodes} R={replication} tau={tau}");

                // The in-process cluster: the PR 7 contract.
                let mut cluster = Cluster::from_snapshot(
                    snapshot.clone(),
                    &ClusterConfig::new(nodes, replication),
                )
                .expect("cluster");
                let in_process = cluster.join(&probes, tau, &config).expect("cluster join");
                assert!(in_process.is_complete(), "{context}: in-process complete");
                assert_bit_identical(&in_process.outcome, &reference, &context);

                // The same snapshot over real sockets.
                let servers = spawn_node_set(&snapshot, nodes, replication);
                let addrs: Vec<SocketAddr> = servers.iter().map(RunningServer::addr).collect();
                let mut client =
                    ClusterClient::connect(&addrs, ClientConfig::default()).expect("connect");
                let over_tcp = client.join(&probes, &probe_labels, tau).expect("tcp join");
                assert!(over_tcp.is_complete(), "{context}: tcp complete");
                assert_bit_identical(&over_tcp.outcome, &reference, &format!("{context} (tcp)"));
                assert_eq!(
                    over_tcp.telemetry.requests, in_process.telemetry.requests,
                    "{context}: same scatter plan"
                );
            }
        }
    }
}

/// Requests above the frozen threshold are refused client-side, exactly
/// like the in-process cluster.
#[test]
fn tau_above_frozen_is_refused() {
    let (snapshot, catalog_trees, _) = common::freeze_demo(40, 1, 4, 5);
    let (probes, probe_labels) = common::probe_batch(&catalog_trees, 4, 2, 9);
    let servers = spawn_node_set(&snapshot, 2, 1);
    let addrs: Vec<SocketAddr> = servers.iter().map(RunningServer::addr).collect();
    let mut client = ClusterClient::connect(&addrs, ClientConfig::default()).expect("connect");
    assert!(client.join(&probes, &probe_labels, 2).is_err());
}

/// A checksum-valid but self-contradictory snapshot never becomes a
/// listening node: `bind` goes through the same validating restore as
/// the in-process cluster and answers the typed `Corrupt`.
#[test]
fn inconsistent_snapshot_is_refused_at_bind() {
    use tsj_catalog::CatalogError::Corrupt;
    use tsj_cluster::ClusterError::Snapshot;
    let catalog = crafted::freeze(&tsj_datagen::synthetic_sized(24, 16, 71), 1, SHARDS);
    for flaw in crafted::Flaw::ALL {
        let dirty = crafted::crafted(&catalog, flaw);
        match Catalogd::bind(dirty, &ServerConfig::new(0, 1, 1), "127.0.0.1:0").err() {
            Some(tsj_catalogd::CatalogdError::Cluster(Snapshot(Corrupt { .. }))) => {}
            refusal => panic!("{flaw:?}: expected the typed Corrupt, got {refusal:?}"),
        }
    }
}

/// Spawns a real `catalogd` server process and reads its bound address
/// off stdout (`--addr 127.0.0.1:0` lets the OS pick the port).
fn spawn_process(
    snapshot_path: &std::path::Path,
    node: usize,
    nodes: usize,
) -> (std::process::Child, SocketAddr) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_catalogd"))
        .args([
            "serve",
            "--snapshot",
            snapshot_path.to_str().unwrap(),
            "--node",
            &node.to_string(),
            "--nodes",
            &nodes.to_string(),
            "--replication",
            "2",
            "--addr",
            "127.0.0.1:0",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn catalogd process");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read serve banner");
    // "catalogd: node N serving on ADDR (...)"
    let addr = line
        .split("serving on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .parse()
        .expect("bound address");
    (child, addr)
}

/// Kill a real server process mid-workload at replication 2: the router
/// fails over to the surviving replica and the answer stays
/// bit-identical. Restart the node and `reconnect` restores full
/// health.
#[test]
fn killed_process_fails_over_bit_identically() {
    let (snapshot, catalog_trees, _) = common::freeze_demo(120, 2, SHARDS, 2015);
    let (probes, probe_labels) = common::probe_batch(&catalog_trees, 12, 10, 41);
    let config = PartSjConfig::default();
    let reference = Catalog::from_bytes(snapshot.clone())
        .expect("reference catalog")
        .join(&probes, 2, &config, &ShardConfig::default())
        .expect("reference join");

    let dir = std::env::temp_dir().join(format!("tsj-catalogd-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snapshot_path = dir.join("kill.snap");
    std::fs::write(&snapshot_path, &snapshot).expect("write snapshot");

    let (mut child0, addr0) = spawn_process(&snapshot_path, 0, 2);
    let (mut child1, addr1) = spawn_process(&snapshot_path, 1, 2);
    let addrs = vec![addr0, addr1];

    let mut client = ClusterClient::connect(&addrs, ClientConfig::default()).expect("connect");
    let healthy = client
        .join(&probes, &probe_labels, 2)
        .expect("healthy join");
    assert!(healthy.is_complete());
    assert_bit_identical(&healthy.outcome, &reference, "both processes up");

    // SIGKILL node 0 — no shutdown frame, no flush, a real crash.
    child0.kill().expect("kill node 0");
    child0.wait().expect("reap node 0");

    let failed_over = client
        .join(&probes, &probe_labels, 2)
        .expect("failover join");
    assert!(
        failed_over.is_complete(),
        "R=2 covers every shard after one process dies"
    );
    assert_bit_identical(&failed_over.outcome, &reference, "node 0 killed");
    assert!(!client.router().is_alive(0), "client observed the death");
    assert!(
        failed_over.telemetry.failovers > 0,
        "failover was exercised"
    );

    // Restart the dead node (same id, new port) and reconnect.
    let (mut restarted, new_addr0) = spawn_process(&snapshot_path, 0, 2);
    // The client set was built for addr0; a restarted process on a new
    // port is a new address — rebuild the client, the normal operator
    // flow in docs/OPERATIONS.md.
    let mut client = ClusterClient::connect(&[new_addr0, addr1], ClientConfig::default())
        .expect("reconnect after restart");
    let healed = client.join(&probes, &probe_labels, 2).expect("healed join");
    assert!(healed.is_complete());
    assert_bit_identical(&healed.outcome, &reference, "node 0 restarted");

    // Clean shutdown via the protocol, then reap both.
    client.shutdown_node(0).expect("shutdown restarted node");
    client.shutdown_node(1).expect("shutdown node 1");
    restarted.wait().expect("reap restarted node");
    child1.wait().expect("reap node 1");
    std::fs::remove_dir_all(&dir).ok();
}

/// Killing one process at replication 1 degrades — typed, never silent,
/// and recovery is reconnect-after-restart.
#[test]
fn killed_process_at_r1_degrades_then_recovers() {
    let (snapshot, catalog_trees, _) = common::freeze_demo(80, 1, 4, 2015);
    let (probes, probe_labels) = common::probe_batch(&catalog_trees, 8, 8, 13);
    let config = PartSjConfig::default();
    let reference = Catalog::from_bytes(snapshot.clone())
        .expect("reference catalog")
        .join(&probes, 1, &config, &ShardConfig::default())
        .expect("reference join");

    let dir = std::env::temp_dir().join(format!("tsj-catalogd-test-r1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snapshot_path = dir.join("r1.snap");
    std::fs::write(&snapshot_path, &snapshot).expect("write snapshot");

    let spawn_r1 = |node: usize| {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_catalogd"))
            .args([
                "serve",
                "--snapshot",
                snapshot_path.to_str().unwrap(),
                "--node",
                &node.to_string(),
                "--nodes",
                "2",
                "--replication",
                "1",
                "--addr",
                "127.0.0.1:0",
            ])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn");
        let stdout = child.stdout.take().expect("stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("banner");
        let addr: SocketAddr = line
            .split("serving on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .expect("addr in banner")
            .parse()
            .expect("addr parses");
        (child, addr)
    };

    let (mut child0, addr0) = spawn_r1(0);
    let (mut child1, addr1) = spawn_r1(1);
    let mut client =
        ClusterClient::connect(&[addr0, addr1], ClientConfig::default()).expect("connect");
    let healthy = client
        .join(&probes, &probe_labels, 1)
        .expect("healthy join");
    assert!(healthy.is_complete());
    assert_bit_identical(&healthy.outcome, &reference, "R=1 both up");

    child0.kill().expect("kill node 0");
    child0.wait().expect("reap node 0");

    let degraded = client
        .join(&probes, &probe_labels, 1)
        .expect("degraded join");
    let report = degraded.degraded.as_ref().expect("typed degradation");
    assert!(!report.lost_shards.is_empty());
    // Degradation only omits: every pair it still proves is a true pair.
    for pair in &degraded.outcome.pairs {
        assert!(reference.pairs.contains(pair), "no invented pairs");
    }

    let (mut restarted, new_addr0) = spawn_r1(0);
    let mut client =
        ClusterClient::connect(&[new_addr0, addr1], ClientConfig::default()).expect("reconnect");
    let healed = client.join(&probes, &probe_labels, 1).expect("healed join");
    assert!(healed.is_complete());
    assert_bit_identical(&healed.outcome, &reference, "R=1 restarted");

    client.shutdown_node(0).expect("shutdown node 0");
    client.shutdown_node(1).expect("shutdown node 1");
    restarted.wait().expect("reap restarted");
    child1.wait().expect("reap node 1");
    std::fs::remove_dir_all(&dir).ok();
}

/// The restart-in-place path (`docs/OPERATIONS.md` §6): node 0 stops,
/// a new server is bound on its address, and `reconnect(0)` brings it
/// back — the next join is complete and bit-identical. A node rebound
/// with another snapshot is refused with a typed error and stays dead.
#[test]
fn reconnect_restores_a_node_restarted_in_place() {
    let (snapshot, catalog_trees, _) = common::freeze_demo(120, 2, SHARDS, 2015);
    let (probes, labels) = common::probe_batch(&catalog_trees, 12, 10, 41);
    let reference = Catalog::from_bytes(snapshot.clone())
        .expect("reference catalog")
        .join(
            &probes,
            2,
            &PartSjConfig::default(),
            &ShardConfig::default(),
        )
        .expect("reference join");
    let mut servers = spawn_node_set(&snapshot, 2, 1);
    let addrs: Vec<SocketAddr> = servers.iter().map(RunningServer::addr).collect();
    let mut client = ClusterClient::connect(&addrs, ClientConfig::default()).expect("connect");
    let rebind = |bytes: &[u8]| {
        Catalogd::bind(
            bytes.to_vec(),
            &ServerConfig::new(0, 2, 1),
            &addrs[0].to_string(),
        )
        .expect("rebind node 0's address")
        .spawn()
        .expect("spawn")
    };
    // Stops node 0 and lets a join find it dead (R = 1: it degrades).
    let lose_node_0 = |client: &mut ClusterClient, server: RunningServer| {
        server.stop();
        let degraded = client.join(&probes, &labels, 2).expect("degraded join");
        assert!(!degraded.is_complete(), "R=1 cannot cover node 0");
        assert!(!client.router().is_alive(0), "client observed the stop");
    };

    lose_node_0(&mut client, servers.remove(0));
    let restarted = rebind(&snapshot);
    client
        .reconnect(0)
        .expect("same snapshot: reconnect succeeds");
    assert!(client.router().is_alive(0));
    let healed = client.join(&probes, &labels, 2).expect("healed join");
    assert!(healed.is_complete());
    assert_bit_identical(&healed.outcome, &reference, "node 0 restarted in place");

    lose_node_0(&mut client, restarted);
    let (other, _, _) = common::freeze_demo(120, 2, SHARDS, 2016);
    let _foreign = rebind(&other);
    match client.reconnect(0) {
        Err(CatalogdError::Server {
            code: ErrorCode::SnapshotMismatch,
            ..
        }) => {}
        refusal => panic!("expected the typed SnapshotMismatch, got {refusal:?}"),
    }
    assert!(!client.router().is_alive(0), "a refused node stays dead");
}

/// Replies node 0 still gets out before something happens to it
/// mid-burst.
const SERVED_PREFIX: usize = 7;

/// A 2-node set with a [`common::Chopper`] in front of node 0, a
/// connected client, and the reference join of a batch that has
/// already gone through once, healthy and bit-identical.
struct Chopped {
    catalog: Catalog,
    reference: JoinOutcome,
    probes: Vec<tsj_tree::Tree>,
    labels: tsj_tree::LabelInterner,
    client: ClusterClient,
    /// Requests of the batch that go to node 0 — its burst.
    burst: usize,
    chopper: common::Chopper,
    _servers: Vec<RunningServer>,
}

fn chopped(replication: usize) -> Chopped {
    let (snapshot, catalog_trees, _) = common::freeze_demo(120, 2, SHARDS, 2015);
    let (probes, labels) = common::probe_batch(&catalog_trees, 12, 10, 41);
    let catalog = Catalog::from_bytes(snapshot.clone()).expect("reference catalog");
    let reference = catalog
        .join(
            &probes,
            2,
            &PartSjConfig::default(),
            &ShardConfig::default(),
        )
        .expect("reference join");
    let servers = spawn_node_set(&snapshot, 2, replication);
    let chopper = common::Chopper::in_front_of(servers[0].addr());
    let addrs = [chopper.addr(), servers[1].addr()];
    let mut client = ClusterClient::connect(&addrs, ClientConfig::default()).expect("connect");
    let healthy = client.join(&probes, &labels, 2).expect("healthy join");
    assert!(healthy.is_complete());
    assert_bit_identical(&healthy.outcome, &reference, "through the relay");
    let burst = client.router().metrics()[0].served as usize;
    assert!(burst > 2 * SERVED_PREFIX);
    Chopped {
        catalog,
        reference,
        probes,
        labels,
        client,
        burst,
        chopper,
        _servers: servers,
    }
}

/// A node killed in the middle of a burst at replication 2: the replies
/// it did send stay served — once — and only the unanswered rest fails
/// over, so the union is still bit-identical.
#[test]
fn node_killed_mid_burst_fails_over_bit_identically() {
    let mut set = chopped(2);
    set.chopper.arm(SERVED_PREFIX, Then::Sever);
    let joined = set
        .client
        .join(&set.probes, &set.labels, 2)
        .expect("failover join");
    assert!(
        joined.is_complete(),
        "R=2 covers what node 0 left unanswered"
    );
    assert_bit_identical(&joined.outcome, &set.reference, "node 0 killed mid-burst");
    assert!(
        !set.client.router().is_alive(0),
        "client observed the death"
    );
    let node0 = &set.client.router().metrics()[0];
    assert_eq!(
        node0.served as usize,
        set.burst + SERVED_PREFIX,
        "the answered prefix stays served by node 0"
    );
    assert_eq!(
        joined.telemetry.failovers as usize,
        set.burst - SERVED_PREFIX,
        "every unanswered request failed over, none of the answered"
    );
    assert_eq!(
        joined.telemetry.backoff_ms, 0,
        "a dead node is not waited on"
    );
}

/// A node that hangs in the middle of a burst: the request being
/// awaited times out (and is retried after backoff), the connection is
/// dropped, and everything behind it on that connection fails over like
/// on a dead node.
#[test]
fn node_hung_mid_burst_times_out_one_request_and_fails_over_the_rest() {
    let mut set = chopped(2);
    set.chopper.arm(SERVED_PREFIX, Then::Stall);
    let joined = set
        .client
        .join(&set.probes, &set.labels, 2)
        .expect("failover join");
    assert!(joined.is_complete());
    assert_bit_identical(&joined.outcome, &set.reference, "node 0 hung mid-burst");
    assert_eq!(
        set.client.router().metrics()[0].served as usize,
        set.burst + SERVED_PREFIX
    );
    assert_eq!(
        joined.telemetry.failovers as usize,
        set.burst - SERVED_PREFIX - 1,
        "all but the timed-out request"
    );
    assert!(joined.telemetry.backoff_ms > 0, "the timeout backed off");
}

/// An `Error { Internal }` in the middle of a burst is one request's
/// transient fault: its slot, its retry — the replies behind it are
/// read off the same connection as if nothing had happened.
#[test]
fn internal_error_mid_burst_fails_only_its_own_request() {
    let mut set = chopped(1);
    set.chopper.arm(SERVED_PREFIX, Then::FailOne);
    let joined = set
        .client
        .join(&set.probes, &set.labels, 2)
        .expect("retried join");
    assert!(joined.is_complete());
    assert_bit_identical(&joined.outcome, &set.reference, "one Internal mid-burst");
    assert!(set.client.router().is_alive(0));
    assert_eq!(
        (joined.telemetry.retries, joined.telemetry.failovers),
        (1, 0)
    );
    let node0 = &set.client.router().metrics()[0];
    assert_eq!(
        (node0.served as usize, node0.failed_attempts),
        (2 * set.burst, 1),
        "the retry went back to node 0 and was served"
    );
}

/// A node killed mid-burst at replication 1 degrades, and the report
/// names exactly the `(probe, class)` pairs of the requests left
/// unanswered — not the answered prefix, and nothing node 1 served.
#[test]
fn node_killed_mid_burst_at_r1_reports_exactly_the_unanswered() {
    let mut set = chopped(1);
    // Node 0's burst, in the order it is sent.
    let requests = plan_requests(&set.probes, 2, set.catalog.index().shard_map(), SHARDS);
    let burst: Vec<_> = requests
        .iter()
        .filter(|req| set.client.router().topology().replicas(req.shard) == [0])
        .collect();
    assert_eq!(burst.len(), set.burst);
    let mut unanswered: Vec<(u32, u32)> = burst[SERVED_PREFIX..]
        .iter()
        .flat_map(|req| req.classes.iter().map(|&class| (req.probe, class)))
        .collect();
    unanswered.sort_unstable();
    unanswered.dedup();

    set.chopper.arm(SERVED_PREFIX, Then::Sever);
    let joined = set
        .client
        .join(&set.probes, &set.labels, 2)
        .expect("degraded join");
    let report = joined.degraded.as_ref().expect("typed degradation");
    assert_eq!(report.unserved, unanswered);
    assert_eq!(
        joined.telemetry.served as usize,
        requests.len() - burst.len() + SERVED_PREFIX
    );
    for pair in &joined.outcome.pairs {
        assert!(set.reference.pairs.contains(pair), "no invented pairs");
    }
}
