//! `join_flat` and `join_bigtree`: repeated full self-joins through
//! `partsj_join_with`, the paper's batch pipeline.
//!
//! One operation is one self-join of the whole collection. The oracle is
//! `tsj_baselines::str_join` — a different candidate generator and its own
//! verifier — computed in set-up; every repetition's pair list must
//! fingerprint equal to it.
//!
//! The traced run replays the join stage by stage through the layers'
//! public functions (the loop below mirrors `partsj_join_detailed` line
//! for line) with a span around each call. The replay is only trusted
//! because it is checkable: its pairs, candidate count, `ted_calls`,
//! per-stage counters and index counters must equal the one-call entry
//! point's.

use crate::gen::{self, CollectionSpec};
use crate::harness::{self, Rounds, RunArgs, Scale, Windowing};
use crate::metrics::Report;
use crate::oracle::{pair_fingerprint, same_counters};
use crate::spans::{self, Recorder};
use partsj::{
    build_subgraphs, cuts_for, partsj_join_detailed, partsj_join_with, probe_tree_nodes,
    resolve_layers, LayerId, MatchCache, PartSjConfig, PartSjDetail, ProbeCounters, ProbeScratch,
    StampSink, SubgraphIndex, VerifyConfig, VerifyData, VerifyEngine,
};
use std::collections::BTreeMap;
use std::time::Instant;
use tsj_obs::ObsConfig;
use tsj_ted::{JoinOutcome, JoinStats, TreeIdx};
use tsj_tree::{FxHashMap, Tree};

/// What distinguishes the two join workloads.
#[derive(Debug, Clone, Copy)]
pub struct JoinWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Tree distribution.
    pub spec: CollectionSpec,
    /// Join threshold.
    pub tau: u32,
    /// Collection size at full scale.
    pub trees: usize,
}

/// Wide shallow trees at the paper's default regime: candidate generation
/// is about half the time and the filter chain resolves most candidates.
pub const FLAT: JoinWorkload = JoinWorkload {
    name: "join_flat",
    spec: CollectionSpec::SWISSPROT,
    tau: 2,
    trees: 600,
};

/// Few large trees: almost all the time is exact TED. Only 64 of them, so
/// that a window of fifty joins lasts about a second, like `join_flat`'s:
/// at 200 trees a window took 3.5 s, longer than this host's quiet
/// stretches, and the window tail swung 19-32 % between identical runs.
pub const BIGTREE: JoinWorkload = JoinWorkload {
    name: "join_bigtree",
    spec: CollectionSpec::BIGTREE,
    tau: 6,
    trees: 64,
};

/// Joins per window: the fewest that carry a p80 (ten samples beyond it).
const WINDOW: usize = 50;
/// Tail percentile of one window.
const TAIL_Q: f64 = 0.8;

struct Setup {
    trees: Vec<Tree>,
    /// Fingerprint of the oracle's pair list.
    reference: u64,
    reference_pairs: usize,
}

fn set_up(w: &JoinWorkload, n: usize, args: &RunArgs) -> Setup {
    let trees = gen::collection(n, &w.spec, args.seed);
    let oracle = tsj_baselines::str_join(&trees, w.tau);
    let mut reference = pair_fingerprint(&oracle.pairs);
    if args.corrupt_oracle {
        reference ^= 1;
    }
    // Warm-up: allocator arenas and caches as a long-running joiner has them.
    std::hint::black_box(partsj_join_with(&trees, w.tau, &PartSjConfig::default()));
    Setup {
        trees,
        reference,
        reference_pairs: oracle.pairs.len(),
    }
}

/// Runs one join workload.
pub fn run(w: &JoinWorkload, args: &RunArgs) -> Report {
    let n = match args.scale {
        Scale::Full => w.trees,
        Scale::Tiny => w.trees / 5,
    };
    let (setup, setup_s) = harness::repeat_setup(|| set_up(w, n, args));
    let mut report = Report::default();
    if args.trace {
        traced(w, &setup, args, &mut report);
    } else {
        let windowing = Windowing {
            window: WINDOW,
            tail_q: TAIL_Q,
            trees_per_op: setup.trees.len() as f64,
        };
        let config = PartSjConfig::default();
        let latencies = harness::timed_section(args, &windowing, || {
            let t = Instant::now();
            let outcome = partsj_join_with(&setup.trees, w.tau, &config);
            let latency = t.elapsed().as_secs_f64();
            check_outcome(&mut report, &setup, &outcome, "partsj_join_with");
            latency
        });
        harness::report_end_to_end(&mut report, setup_s, &latencies, &windowing);
    }
    report
}

fn check_outcome(report: &mut Report, setup: &Setup, outcome: &JoinOutcome, what: &str) {
    let got = pair_fingerprint(&outcome.pairs);
    report.check(got == setup.reference, || {
        format!(
            "{what}: {} pairs (fingerprint {got:#018x}), str_join has {} ({:#018x})",
            outcome.pairs.len(),
            setup.reference_pairs,
            setup.reference
        )
    });
}

/// What one staged replay produced, for the bit-identity check.
struct Replayed {
    outcome: JoinOutcome,
    detail: PartSjDetail,
    /// Pairs whose `check` advanced `ted_calls()`: they reached exact TED.
    ted_pairs: Vec<(TreeIdx, TreeIdx)>,
}

/// `partsj_join_detailed`, replayed through the layers' public functions
/// with a span around each call. `data` outlives the call so the caller
/// can re-time the exact-TED pairs against the same prepared inputs.
fn replay_join(
    trees: &[Tree],
    tau: u32,
    config: &PartSjConfig,
    rec: &mut Recorder,
    data_out: &mut Vec<VerifyData>,
) -> Replayed {
    let root = rec.enter("bench.join_replay");
    let delta = 2 * tau as usize + 1;
    let mut stats = JoinStats::default();
    let mut detail = PartSjDetail::default();

    let s = rec.enter("core.verify_prep");
    *data_out = VerifyData::batch_for_config(trees, &config.verify);
    rec.exit(s);
    let data = &*data_out;
    let mut order: Vec<TreeIdx> = (0..trees.len() as TreeIdx).collect();
    order.sort_by_key(|&i| (trees[i as usize].len(), i));

    let mut index = SubgraphIndex::new(tau, config.window);
    let mut small_by_size: FxHashMap<u32, Vec<TreeIdx>> = FxHashMap::default();
    let mut stamp: Vec<TreeIdx> = vec![TreeIdx::MAX; trees.len()];
    let mut verify = VerifyEngine::new(tau, config);
    let mut pairs: Vec<(TreeIdx, TreeIdx)> = Vec::new();
    let mut ted_pairs: Vec<(TreeIdx, TreeIdx)> = Vec::new();
    let mut candidates: Vec<TreeIdx> = Vec::new();
    let mut layer_window: Vec<LayerId> = Vec::new();
    let mut match_cache = MatchCache::new();
    let mut counters = ProbeCounters::default();
    let mut probe_scratch = ProbeScratch::new();

    for &i in &order {
        let tree = &trees[i as usize];
        let s = rec.enter("tree.prepare");
        let (binary, posts) = probe_scratch.prepare(tree);
        rec.exit(s);
        let size_i = binary.len() as u32;
        let lo = size_i.saturating_sub(tau).max(1);

        let s = rec.enter("core.probe");
        candidates.clear();
        for n in lo..=size_i {
            if let Some(list) = small_by_size.get(&n) {
                for &j in list {
                    if stamp[j as usize] != i {
                        stamp[j as usize] = i;
                        candidates.push(j);
                        detail.small_tree_candidates += 1;
                    }
                }
            }
        }
        resolve_layers(&index, lo, size_i, &mut layer_window);
        let mut sink = StampSink {
            stamp: &mut stamp,
            marker: i,
            candidates: &mut candidates,
        };
        probe_tree_nodes(
            &index,
            &layer_window,
            binary,
            posts,
            size_i,
            config.matching,
            &mut match_cache,
            &mut counters,
            &mut sink,
        );
        rec.exit(s);
        stats.candidates += candidates.len() as u64;
        stats.pairs_examined += candidates.len() as u64;

        for &j in &candidates {
            let before = verify.ted_calls();
            let s = rec.enter("core.check");
            let verdict = verify.check(&data[i as usize], &data[j as usize]);
            rec.exit(s);
            if verdict.is_some() {
                pairs.push((j, i));
            }
            if verify.ted_calls() > before {
                ted_pairs.push((i, j));
            }
        }

        if (size_i as usize) < delta {
            small_by_size.entry(size_i).or_default().push(i);
        } else {
            let s = rec.enter("core.partition");
            let cuts = cuts_for(binary, delta, config.partitioning, u64::from(i));
            let subgraphs = build_subgraphs(binary, posts, &cuts, i);
            rec.exit(s);
            detail.subgraphs_built += subgraphs.len() as u64;
            let s = rec.enter("core.index_insert");
            index.insert_tree(size_i, subgraphs);
            rec.exit(s);
        }
    }
    detail.probes = counters.probes;
    detail.match_attempts = counters.match_attempts;
    detail.matches = counters.matches;
    detail.index_registrations = index.registrations();
    verify.fold_into(&mut stats);
    let outcome = JoinOutcome::new(pairs, stats);
    rec.exit(root);
    Replayed {
        outcome,
        detail,
        ted_pairs,
    }
}

/// The layer spans whose self times must add up to the one-call join.
const LAYER_SPANS: [&str; 6] = [
    "tree.prepare",
    "core.verify_prep",
    "core.probe",
    "core.check",
    "core.partition",
    "core.index_insert",
];

/// The traced run. Every round runs the one-call join with `tsj_obs`
/// DISABLED, the one-call join with it ON (the untraced base), the staged
/// replay, and the exact-TED re-timing, back to back: the four see the
/// same host conditions, so their per-round ratios hold even when the
/// host does not. The round count depends on `--seconds` only, never on
/// measured speed, so every count repeats exactly for a seed.
fn traced(w: &JoinWorkload, setup: &Setup, args: &RunArgs, report: &mut Report) {
    let config = PartSjConfig::default();
    let rounds = match args.scale {
        Scale::Full => (3.0 * args.seconds).max(5.0) as usize,
        Scale::Tiny => 3,
    };
    let mut rec = Recorder::new();
    // `check_exact` through an engine with no filter stage is the TED
    // kernel and nothing else.
    let mut exact = VerifyEngine::with_filters(w.tau, &VerifyConfig::NONE);
    let mut data = Vec::new();
    let mut one_call = None;
    let mut exact_calls = 0usize;
    let (mut kept_spans, mut total_spans) = (0usize, 0usize);
    // Per round: µs of each quantity, keyed by name.
    let mut per_round = Rounds::default();

    for round in 0..rounds {
        let mut row = BTreeMap::new();
        tsj_obs::configure(&ObsConfig::DISABLED);
        let t = Instant::now();
        let outcome = partsj_join_with(&setup.trees, w.tau, &config);
        row.insert("obs_off", t.elapsed().as_secs_f64() * 1e6);
        check_outcome(
            report,
            setup,
            &outcome,
            "partsj_join_with (tsj_obs disabled)",
        );

        tsj_obs::configure(&ObsConfig::ON);
        let t = Instant::now();
        let (one_outcome, one_detail) = partsj_join_detailed(&setup.trees, w.tau, &config);
        row.insert("base", t.elapsed().as_secs_f64() * 1e6);
        check_outcome(report, setup, &one_outcome, "partsj_join_detailed");

        rec.set_request(round as u32);
        let first_span = rec.spans().len();
        let replayed = replay_join(&setup.trees, w.tau, &config, &mut rec, &mut data);
        row.insert("replay", rec.spans()[first_span].duration_ns() as f64 / 1e3);
        for &(i, j) in &replayed.ted_pairs {
            let s = rec.enter("ted.exact");
            std::hint::black_box(exact.check_exact(&data[i as usize], &data[j as usize]));
            rec.exit(s);
        }
        exact_calls = replayed.ted_pairs.len();

        check_outcome(report, setup, &replayed.outcome, "staged replay");
        let identical = replayed.outcome.pairs == one_outcome.pairs
            && same_counters(&replayed.outcome.stats, &one_outcome.stats)
            && replayed.detail == one_detail
            && replayed.ted_pairs.len() as u64 == one_outcome.stats.ted_calls;
        report.check(identical, || {
            format!(
                "replay is not bit-identical to partsj_join_detailed: {:?} / {:?} vs {:?} / {:?}",
                replayed.outcome.stats, replayed.detail, one_outcome.stats, one_detail
            )
        });
        one_call = Some((one_outcome, one_detail));

        for (name, own) in spans::self_time_by_name(&rec.spans()[first_span..]) {
            row.insert(name, own.iter().sum::<f64>() / 1e3);
        }
        let layers: f64 = LAYER_SPANS.iter().map(|name| row[name]).sum();
        row.insert("layers", layers);
        let ted = row.get("ted.exact").copied().unwrap_or(0.0);
        row.insert("chain", row["core.check"] - ted);
        per_round.push(row);
        total_spans += rec.spans().len() - first_span;
        // The trace file keeps the first two rounds; later ones are
        // aggregated above and dropped.
        if round < 2 {
            kept_spans = rec.spans().len();
        } else {
            rec.truncate(kept_spans);
        }
    }
    let (one_outcome, one_detail) = one_call.expect("at least one round");

    // Absolute times at the quiet decile over rounds; ratios as the median
    // of per-round ratios.
    let quiet_us = |name: &str| per_round.quiet(name);
    let n = setup.trees.len() as f64;
    let ted_us = quiet_us("ted.exact");
    report.set("tree.prepare_us", quiet_us("tree.prepare") / n);
    report.set("ted.exact_calls", exact_calls as f64);
    report.set("ted.exact_ms", ted_us / 1e3);
    report.set(
        "ted.exact_us_per_call",
        ted_us / (exact_calls as f64).max(1.0),
    );
    report.set("core.verify_prep_ms", quiet_us("core.verify_prep") / 1e3);
    report.set("core.partition_ms", quiet_us("core.partition") / 1e3);
    report.set("core.index_insert_ms", quiet_us("core.index_insert") / 1e3);
    report.set("core.probe_ms", quiet_us("core.probe") / 1e3);
    // A difference of two timings taken a few milliseconds apart: the
    // median over rounds, not the quiet decile (which would pick the
    // rounds where the host sped up in between).
    report.set(
        "core.verify_chain_ms",
        per_round.median("chain").max(0.0) / 1e3,
    );
    report.set("core.replay_coverage", per_round.ratio("layers", "base"));
    report.set("obs.overhead_ratio", per_round.ratio("base", "obs_off"));
    report.set("obs.overhead_base_us", quiet_us("obs_off"));
    report.set(
        "obs.trace_overhead_ratio",
        per_round.ratio("replay", "base"),
    );
    report.set("obs.trace_base_us", quiet_us("base"));
    report.set("obs.spans_recorded", total_spans as f64);

    let stats = &one_outcome.stats;
    report.set("core.subgraphs_built", one_detail.subgraphs_built as f64);
    report.set(
        "core.index_registrations",
        one_detail.index_registrations as f64,
    );
    report.set("core.probes", one_detail.probes as f64);
    report.set("core.match_attempts", one_detail.match_attempts as f64);
    report.set("core.matches", one_detail.matches as f64);
    report.set(
        "core.match_hit_ratio",
        one_detail.matches as f64 / (one_detail.match_attempts as f64).max(1.0),
    );
    report.set("core.candidates", stats.candidates as f64);
    report.set(
        "core.candidate_precision",
        stats.results as f64 / (stats.candidates as f64).max(1.0),
    );
    for stage in &stats.stage_counts {
        let name = match stage.stage {
            "size" => "core.stage_resolved.size",
            "shape-accept" => "core.stage_resolved.shape-accept",
            "label-hist" => "core.stage_resolved.label-hist",
            "traversal-sed" => "core.stage_resolved.traversal-sed",
            other => panic!("verify chain grew a stage the benchmark does not declare: {other}"),
        };
        report.set(name, stage.count as f64);
    }

    spans::write_trace(args.trace_dir.as_deref(), w.name, rec.spans());
}
