//! Observability must be a pure observer: every join/search/streaming/
//! cluster entry point returns **bit-identical** results — pairs *and*
//! candidate counts *and* per-stage counters — whether `tsj-obs` is on,
//! off, or profiling. Property-tested over random collections, τ and
//! shard counts, with the configuration matrix run inside each case.
//!
//! The global observability config is process-wide state, so every test
//! that flips it serializes on one mutex and restores the default before
//! releasing it.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use tree_similarity_join::obs::{self, ObsConfig};
use tree_similarity_join::prelude::*;
use tree_similarity_join::ted::JoinWork;

static CONFIG_LOCK: Mutex<()> = Mutex::new(());

/// Everything an entry point can answer, in comparable form (wall-clock
/// durations excluded — those legitimately vary run to run).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    join_pairs: Vec<(u32, u32)>,
    join_work: JoinWork,
    sharded_pairs: Vec<(u32, u32)>,
    search_hits: Vec<(u32, u32)>,
    stream_partners: Vec<Vec<u32>>,
    stream_evictions: u64,
    stream_compactions: u64,
    cluster_pairs: Vec<(u32, u32)>,
    cluster_work: JoinWork,
    cluster_telemetry: Telemetry,
    cluster_degraded: Option<Degraded>,
}

/// Runs the full stack — batch join, sharded R×S join of `left` with
/// itself, similarity search,
/// sliding-window streaming, frozen catalog behind a faulty cluster —
/// under whatever observability configuration is currently active.
fn fingerprint(left: &[Tree], right: &[Tree], tau: u32, shards: usize, seed: u64) -> Fingerprint {
    let config = PartSjConfig::default();
    let shard_cfg = ShardConfig {
        shards,
        probe_threads: 1,
        verify_threads: 1,
        ..Default::default()
    };

    let join = partsj_join_with(left, tau, &config);
    let sharded = sharded_rs_join(left, left, tau, &config, &shard_cfg);

    let catalog = Catalog::freeze(
        left.to_vec(),
        LabelInterner::new(),
        tau,
        &config,
        &shard_cfg,
    );
    let search_hits = right
        .iter()
        .enumerate()
        .flat_map(|(j, probe)| {
            catalog
                .query(probe, tau, &config)
                .expect("tau within frozen bound")
                .into_iter()
                .map(move |(i, d)| (i, (j as u32) * 1000 + d))
        })
        .collect();

    let mut stream = ShardedStreamingJoin::new(
        tau,
        config,
        ShardConfig {
            max_dead_fraction: 0.3,
            min_dead_postings: 1,
            ..shard_cfg
        },
        EvictionPolicy::SlidingCount(6),
    );
    let stream_partners: Vec<Vec<u32>> = left
        .iter()
        .chain(right.iter())
        .map(|t| stream.insert(t))
        .collect();

    let mut cluster_cfg = ClusterConfig::new(2, 2);
    cluster_cfg.faults = FaultPlan {
        seed,
        delay_permille: 150,
        delay_ms: 4,
        timeout_permille: 80,
        transient_permille: 120,
        node_down_permille: 40,
        ..FaultPlan::none()
    };
    let mut cluster =
        Cluster::from_snapshot(catalog.to_bytes(), &cluster_cfg).expect("snapshot assembles");
    cluster
        .router_mut()
        .set_clock(Arc::new(VirtualClock::new()));
    let served = cluster.join(right, tau, &config).expect("join runs");

    Fingerprint {
        join_work: join.stats.work(),
        join_pairs: join.pairs,
        sharded_pairs: sharded.pairs,
        search_hits,
        stream_partners,
        stream_evictions: stream.evictions(),
        stream_compactions: stream.compactions(),
        cluster_work: served.outcome.stats.work(),
        cluster_pairs: served.outcome.pairs,
        cluster_telemetry: served.telemetry,
        cluster_degraded: served.degraded,
    }
}

fn check_matrix(seed: u64, tau: u32, shards: usize) {
    let guard = CONFIG_LOCK.lock().unwrap();
    let left = synthetic_sized(24, 12, seed);
    let right = synthetic_sized(8, 12, seed.wrapping_add(1));
    let baseline = {
        obs::configure(&ObsConfig::ON);
        fingerprint(&left, &right, tau, shards, seed)
    };
    for (name, cfg) in [
        ("DISABLED", ObsConfig::DISABLED),
        ("PROFILE", ObsConfig::PROFILE),
    ] {
        obs::configure(&cfg);
        let other = fingerprint(&left, &right, tau, shards, seed);
        if baseline != other {
            obs::configure(&ObsConfig::default());
            drop(guard);
            panic!(
                "ObsConfig::{name} changed results at TSJ_FAULT_SEED={seed:#x} \
                 tau={tau} shards={shards}:\nON:   {baseline:?}\n{name}: {other:?}"
            );
        }
    }
    obs::configure(&ObsConfig::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline invariant: flipping observability on/off/profile
    /// never changes any result, counter or telemetry row.
    #[test]
    fn obs_config_never_changes_results(
        seed in any::<u64>(),
        tau in 1u32..3,
        shards in 1usize..5,
    ) {
        check_matrix(seed, tau, shards);
    }
}

/// A pinned corner of the matrix (heavier faults than the property test
/// draws), so CI failures reproduce without a proptest seed.
#[test]
fn obs_config_matrix_pinned_case() {
    check_matrix(0x0B5_CAFE, 2, 3);
}
