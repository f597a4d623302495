//! `stream_window`: a sliding-count window over `ShardedStreamingJoin` —
//! the same index as `join_flat`, used for writes: insert, evict,
//! tombstone and compact beside every probe.
//!
//! One operation is one `insert`. Arrival `i` is tree `i mod pool` of a
//! generated pool several windows long, so a tree only comes round again
//! long after its previous copy was evicted. The stream runs in *epochs*:
//! after a fixed number of arrivals the window is dropped and a fresh one
//! is filled from arrival 0 again. The per-tree bookkeeping of the window
//! grows with every arrival (ROADMAP 4e), so without epochs `rss_peak_mb`
//! would rise with the number of inserts a time-boxed run gets through —
//! a faster insert would read as a memory regression.
//!
//! Outputs are checked outside the timed operations, from nothing but the
//! pool and exact TED: every reported partner must be live in the window
//! and within τ, and every 1 000th arrival's partner set must equal a
//! size-filtered brute force over the live window.
//!
//! The traced run drives a second, staged window through `ShardedIndex`'s
//! public functions (the loop mirrors `ShardedStreamingJoin::insert_at`
//! line for line), chunk by chunk beside the one-call join, and holds its
//! partner lists, evictions and compactions to the one-call join's.

use crate::gen::{self, CollectionSpec};
use crate::harness::{self, RunArgs, Scale, Windowing};
use crate::metrics::Report;
use crate::oracle;
use crate::spans::{self, Recorder};
use crate::stats;
use partsj::{
    build_subgraphs, cuts_for, LayerId, MatchCache, PartSjConfig, ProbeCounters, ProbeScratch,
    StampSink, VerifyData, VerifyEngine, VerifyPrep,
};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;
use tsj_shard::{EvictionPolicy, ShardConfig, ShardedIndex, ShardedStreamingJoin};
use tsj_ted::{TedEngine, TreeIdx};
use tsj_tree::{FxHashMap, Tree};

const TAU: u32 = 2;
const SHARDS: usize = 4;
/// Tail percentile of one window.
const TAIL_Q: f64 = 0.99;
/// Every arrival whose ordinal is a multiple of this is audited against
/// the brute-force window.
const AUDIT_EVERY: usize = 1_000;

/// Workload sizes.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Distinct trees the arrivals cycle through.
    pool: usize,
    /// `EvictionPolicy::SlidingCount`.
    window: usize,
    /// Inserts per window: enough for a p99 with ten samples beyond it.
    window_ops: usize,
    /// Arrivals per epoch, fill included.
    epoch: usize,
    /// Inserts per chunk of the traced run (one-call and replay alternate).
    chunk: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            pool: 16_000,
            window: 2_000,
            window_ops: 5_000,
            epoch: 100_000,
            chunk: 1_000,
        },
        Scale::Tiny => Sizes {
            pool: 1_500,
            window: 200,
            window_ops: 1_000,
            // The one timed window of a tiny run crosses an epoch boundary.
            epoch: 1_000,
            chunk: 100,
        },
    }
}

/// The one-call window plus everything needed to check it afterwards.
struct Stream {
    sizes: Sizes,
    pool: Vec<Tree>,
    join: ShardedStreamingJoin,
    /// Non-empty partner lists of the current epoch, by arrival ordinal.
    partners: BTreeMap<usize, Vec<TreeIdx>>,
    corrupt_oracle: bool,
}

impl Stream {
    fn tree(&self, ordinal: usize) -> &Tree {
        &self.pool[ordinal % self.pool.len()]
    }

    /// Drops the window and fills a fresh one: one window of arrivals to
    /// fill it, one more to slide it, so eviction, tombstones and
    /// compaction are all in steady state when timing (re)starts.
    fn start_epoch(&mut self) {
        self.join = new_join(self.sizes.window);
        self.partners.clear();
        for _ in 0..2 * self.sizes.window {
            self.insert_arrival();
        }
    }

    /// Inserts the next arrival of the current epoch; returns its latency
    /// in seconds.
    fn insert_arrival(&mut self) -> f64 {
        let ordinal = self.join.len();
        let tree = &self.pool[ordinal % self.pool.len()];
        let t = Instant::now();
        let found = self.join.insert(tree);
        let latency = t.elapsed().as_secs_f64();
        if !found.is_empty() {
            self.partners.insert(ordinal, found);
        }
        latency
    }

    /// One operation: the next insert. A full epoch is checked and
    /// replaced by a fresh one first, outside the timed call.
    fn insert_next(&mut self, report: &mut Report) -> f64 {
        if self.join.len() >= self.sizes.epoch {
            self.verify(report);
            self.start_epoch();
        }
        self.insert_arrival()
    }

    /// Holds every insert of the current epoch to the oracle; one checked
    /// operation per insert.
    fn verify(&mut self, report: &mut Report) {
        let (window, none) = (self.sizes.window, Vec::new());
        let mut corrupt = std::mem::take(&mut self.corrupt_oracle);
        let ted = &mut TedEngine::unit();
        for ordinal in 0..self.join.len() {
            let reported = self.partners.get(&ordinal).unwrap_or(&none);
            let tree_of = |i: usize| self.tree(i);
            let mut ok = oracle::partners_are_sound(ordinal, reported, window, TAU, tree_of, ted);
            if ok && ordinal % AUDIT_EVERY == 0 {
                let mut expected = oracle::window_partners(ordinal, window, TAU, tree_of, ted);
                if std::mem::take(&mut corrupt) {
                    expected.push(TreeIdx::MAX);
                }
                ok = *reported == expected;
            }
            report.check(ok, || {
                format!("insert {ordinal} reported partners {reported:?}, which the live window and exact TED do not bear out")
            });
        }
    }
}

fn new_join(window: usize) -> ShardedStreamingJoin {
    ShardedStreamingJoin::new(
        TAU,
        PartSjConfig::default(),
        ShardConfig::with_shards(SHARDS),
        EvictionPolicy::SlidingCount(window),
    )
}

fn set_up(args: &RunArgs) -> Stream {
    let sizes = sizes(args.scale);
    let mut stream = Stream {
        sizes,
        pool: gen::collection(sizes.pool, &CollectionSpec::SWISSPROT, args.seed),
        join: new_join(sizes.window),
        partners: BTreeMap::new(),
        corrupt_oracle: args.corrupt_oracle,
    };
    stream.start_epoch();
    stream
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Report {
    let (mut stream, setup_s) = harness::repeat_setup(|| set_up(args));
    let mut report = Report::default();
    if args.trace {
        traced(&mut stream, args, &mut report);
    } else {
        let windowing = Windowing {
            window: stream.sizes.window_ops,
            tail_q: TAIL_Q,
            trees_per_op: 1.0,
        };
        let latencies =
            harness::timed_section(args, &windowing, || stream.insert_next(&mut report));
        harness::report_end_to_end(&mut report, setup_s, &latencies, &windowing);
    }
    stream.verify(&mut report);
    report
}

/// `ShardedStreamingJoin`, rebuilt from `ShardedIndex`'s public functions
/// with a span around each call into a layer.
struct StagedWindow {
    config: PartSjConfig,
    window: usize,
    index: ShardedIndex,
    small_by_size: FxHashMap<u32, Vec<TreeIdx>>,
    data: Vec<Option<VerifyData>>,
    stamp: Vec<u32>,
    caches: Vec<MatchCache>,
    shard_scratch: Vec<usize>,
    layer_scratch: Vec<LayerId>,
    candidates: Vec<TreeIdx>,
    probe_scratch: ProbeScratch,
    verify_prep: VerifyPrep,
    arrivals: VecDeque<TreeIdx>,
    verify: VerifyEngine,
    evictions: u64,
    /// Σ over inserts of the shards its size window maps to.
    shards_probed: u64,
}

impl StagedWindow {
    fn new(window: usize) -> StagedWindow {
        let config = PartSjConfig::default();
        let index = ShardedIndex::new(TAU, config.window, &ShardConfig::with_shards(SHARDS));
        StagedWindow {
            config,
            window,
            caches: (0..index.shard_count())
                .map(|_| MatchCache::new())
                .collect(),
            index,
            small_by_size: FxHashMap::default(),
            data: Vec::new(),
            stamp: Vec::new(),
            shard_scratch: Vec::new(),
            layer_scratch: Vec::new(),
            candidates: Vec::new(),
            probe_scratch: ProbeScratch::new(),
            verify_prep: VerifyPrep::default(),
            arrivals: VecDeque::new(),
            verify: VerifyEngine::new(TAU, &config),
            evictions: 0,
            shards_probed: 0,
        }
    }

    /// One insert: `evict_for` + `insert_at` of the one-call join.
    fn insert(&mut self, tree: &Tree, rec: &mut Recorder) -> Vec<TreeIdx> {
        let root = rec.enter("bench.insert_replay");
        let delta = 2 * TAU as usize + 1;

        // SlidingCount: after this insert the window holds ≤ `window`.
        while self.index.live_trees() > self.window.saturating_sub(1) {
            let Some(old) = self.arrivals.pop_front() else {
                break;
            };
            if !self.index.is_alive(old) {
                continue;
            }
            let size = self.index.size_of(old).expect("live tree has a size");
            let s = rec.enter("shard.remove");
            self.index.remove_tree(old);
            rec.exit(s);
            self.data[old as usize] = None;
            if (size as usize) < delta {
                if let Some(list) = self.small_by_size.get_mut(&size) {
                    list.retain(|&j| j != old);
                }
            }
            self.evictions += 1;
        }

        let id = self.data.len() as TreeIdx;
        let size = tree.len() as u32;
        let lo = size.saturating_sub(TAU).max(1);
        let hi = size + TAU;
        self.candidates.clear();
        for n in lo..=hi {
            if let Some(list) = self.small_by_size.get(&n) {
                for &j in list {
                    if self.index.is_alive(j) && self.stamp[j as usize] != id {
                        self.stamp[j as usize] = id;
                        self.candidates.push(j);
                    }
                }
            }
        }

        let s = rec.enter("tree.prepare");
        let (binary, posts) = self.probe_scratch.prepare(tree);
        rec.exit(s);
        let mut counters = ProbeCounters::default();
        let mut sink = StampSink {
            stamp: &mut self.stamp,
            marker: id,
            candidates: &mut self.candidates,
        };
        let s = rec.enter("shard.probe");
        self.index.probe_tree(
            binary,
            posts,
            size,
            lo,
            hi,
            self.config.matching,
            &mut self.caches,
            &mut self.shard_scratch,
            &mut self.layer_scratch,
            &mut counters,
            &mut sink,
        );
        rec.exit(s);
        // `probe_tree` left the window's shard set in the scratch.
        self.shards_probed += self.shard_scratch.len() as u64;

        let s = rec.enter("core.verify_prep");
        let data = VerifyData::for_config_with(tree, &self.config.verify, &mut self.verify_prep);
        rec.exit(s);
        let mut partners = Vec::new();
        for &j in &self.candidates {
            let other = self.data[j as usize]
                .as_ref()
                .expect("live candidate has verification data");
            let s = rec.enter("core.check");
            let verdict = self.verify.check(other, &data);
            rec.exit(s);
            if verdict.is_some() {
                partners.push(j);
            }
        }
        partners.sort_unstable();

        if (size as usize) < delta {
            self.index.track(id, size);
            self.small_by_size.entry(size).or_default().push(id);
        } else {
            let s = rec.enter("core.partition");
            let cuts = cuts_for(binary, delta, self.config.partitioning, u64::from(id));
            let subgraphs = build_subgraphs(binary, posts, &cuts, id);
            rec.exit(s);
            let s = rec.enter("shard.insert");
            self.index.insert_tree(id, size, subgraphs);
            rec.exit(s);
        }
        self.data.push(Some(data));
        self.stamp.push(u32::MAX);
        self.arrivals.push_back(id);
        rec.exit(root);
        partners
    }
}

/// What the one-call join looked like right after an insert.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Counters {
    compactions: u64,
    evictions: u64,
}

/// The traced run. Insert counts depend on `--seconds` only, never on
/// measured speed, so every count repeats exactly for a seed.
fn traced(stream: &mut Stream, args: &RunArgs, report: &mut Report) {
    let (warm, chunk) = (stream.join.len(), stream.sizes.chunk);
    // One epoch holds the whole traced run: the staged window replays it
    // from arrival 0.
    let chunks = match args.scale {
        Scale::Full => (2.0 * args.seconds).max(10.0) as usize,
        Scale::Tiny => 10,
    }
    .min((stream.sizes.epoch - warm) / chunk);
    let mut rec = Recorder::new();
    let mut staged = StagedWindow::new(stream.sizes.window);
    let none = Vec::new();

    // The staged window first catches up with set-up's fill and warm-up.
    // (Set-up did not keep the one-call counters, so only partners are
    // compared here; counters are compared from the first chunk on.)
    for ordinal in 0..warm {
        rec.set_request(ordinal as u32);
        let got = staged.insert(stream.tree(ordinal), &mut rec);
        let want = stream.partners.get(&ordinal).unwrap_or(&none);
        report.check(got == *want, || {
            format!("staged insert {ordinal}: partners {got:?}, one-call {want:?}")
        });
    }
    let catch_up_spans = rec.spans().len();

    // Then chunk by chunk: the one-call join inserts the next `chunk`
    // arrivals, the staged window replays the same ones right after — the
    // same work under the same host conditions.
    let mut one_call_us: Vec<Vec<f64>> = Vec::with_capacity(chunks);
    let mut overhead: Vec<f64> = Vec::with_capacity(chunks);
    let mut compaction_us: Vec<f64> = Vec::new();
    let mut after: Vec<Counters> = Vec::new();
    let mut dead_peak = 0u64;
    for c in 0..chunks {
        let mut latencies = Vec::with_capacity(chunk);
        for _ in 0..chunk {
            let before = stream.join.compactions();
            let us = stream.insert_arrival() * 1e6;
            if stream.join.compactions() > before {
                compaction_us.push(us);
            }
            latencies.push(us);
            dead_peak = dead_peak.max(stream.join.index().dead_postings());
            after.push(Counters {
                compactions: stream.join.compactions(),
                evictions: stream.join.evictions(),
            });
        }
        let one_call_p50 = stats::median(&mut latencies.clone());
        one_call_us.push(latencies);

        let first = rec.spans().len();
        for ordinal in warm + c * chunk..warm + (c + 1) * chunk {
            rec.set_request(ordinal as u32);
            let got = staged.insert(stream.tree(ordinal), &mut rec);
            let want = stream.partners.get(&ordinal).unwrap_or(&none);
            let counters = Counters {
                compactions: staged.index.compactions(),
                evictions: staged.evictions,
            };
            let same = got == *want && counters == after[ordinal - warm];
            report.check(same, || {
                format!(
                    "staged insert {ordinal}: partners {got:?} {counters:?}, one-call {want:?} {:?}",
                    after[ordinal - warm]
                )
            });
        }
        let mut replay_us: Vec<f64> = rec.spans()[first..]
            .iter()
            .filter(|s| s.name == "bench.insert_replay")
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        overhead.push(stats::median(&mut replay_us) / one_call_p50);
    }

    let by_name = spans::self_time_by_name(&rec.spans()[catch_up_spans..]);
    let p50_us = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |v| stats::median(&mut v.clone()) / 1e3)
    };
    report.set("tree.prepare_us", p50_us("tree.prepare"));
    report.set("shard.insert_us", p50_us("shard.insert"));
    report.set("shard.probe_us", p50_us("shard.probe"));
    report.set("shard.remove_us", p50_us("shard.remove"));
    report.set(
        "shard.fanout_shards",
        staged.shards_probed as f64 / staged.data.len() as f64,
    );
    report.set("shard.compactions", stream.join.compactions() as f64);
    report.set(
        "shard.compaction_insert_us_p50",
        if compaction_us.is_empty() {
            0.0
        } else {
            stats::median(&mut compaction_us)
        },
    );
    report.set("shard.evictions", stream.join.evictions() as f64);
    report.set("shard.dead_postings_peak", dead_peak as f64);
    report.set(
        "shard.live_postings_end",
        stream.join.index().live_postings() as f64,
    );
    // p50 insert latency late in the run over early in the run (last and
    // first quarter of the chunks, each at its quiet decile): 1.0 is the
    // bounded-memory target.
    let quarter = (chunks / 4).max(1);
    let quiet_p50 = |part: &[Vec<f64>]| {
        harness::quiet(
            &part
                .iter()
                .map(|c| stats::median(&mut c.clone()))
                .collect::<Vec<_>>(),
        )
    };
    report.set(
        "shard.insert_drift_ratio",
        quiet_p50(&one_call_us[chunks - quarter..]) / quiet_p50(&one_call_us[..quarter]),
    );
    report.set("obs.trace_overhead_ratio", stats::median(&mut overhead));
    report.set(
        "obs.trace_base_us",
        stats::median(&mut one_call_us.concat()),
    );
    report.set("obs.spans_recorded", rec.spans().len() as f64);

    spans::write_trace(args.trace_dir.as_deref(), "stream_window", rec.spans());
}
