//! Verify-stage timings under `ObsConfig::PROFILE` through a serving loop.
//! The stage-timing switch is process-global, so this test has a binary
//! of its own.

use partsj::{PartSjConfig, VerifyEngine, VERIFY_STAGES};
use tsj_obs::ObsConfig;
use tsj_shard::{Frozen, FrozenJoinScratch, ShardConfig};
use tsj_tree::{parse_bracket, LabelInterner, Tree};

/// Everything `tsj_core_verify_stage_ns_total` holds, over every stage.
fn published_stage_ns() -> u64 {
    let counter = |stage| {
        let name = tsj_obs::labeled("tsj_core_verify_stage_ns_total", "stage", stage);
        tsj_obs::global().counter(&name).get()
    };
    VERIFY_STAGES.into_iter().map(counter).sum()
}

/// A serving loop reuses one engine, and `join_seq` resets its counters
/// at entry: every call still publishes its own verify-stage time.
#[test]
fn every_join_seq_on_a_reused_engine_publishes_stage_time() {
    let mut labels = LabelInterner::new();
    let trees: Vec<Tree> = ["{a{b}{c}{d}}", "{a{b}{x{c}{d}}}", "{q{r}{s}{t}}"]
        .iter()
        .map(|s| parse_bracket(s, &mut labels).unwrap())
        .collect();
    let config = PartSjConfig::default();
    let frozen = Frozen::build(&trees, 1, &config, &ShardConfig::with_shards(1));
    tsj_obs::configure(&ObsConfig::PROFILE);
    let mut engine = VerifyEngine::new(1, &config);
    let (mut scratch, mut pairs) = (FrozenJoinScratch::new(), Vec::new());
    let mut published = published_stage_ns();
    for call in 0..2 {
        frozen.join_seq(&trees, 1, &config, &mut engine, &mut scratch, &mut pairs);
        assert_eq!(pairs, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]);
        let now = published_stage_ns();
        assert!(now > published, "join {call} published no stage time");
        published = now;
    }
}
