//! Sliding-window streaming join over the sharded dynamic index.
//!
//! The paper's §4.3 closes by motivating "streaming workloads where tree
//! objects (e.g., XML and HTML entities) are inserted and updated at a
//! high rate". Algorithm 1's loop is naturally incremental — the index
//! is built on the fly — but it relies on ascending size order to probe
//! only `[|T| − τ, |T|]`. A stream arrives in arbitrary order, so
//! [`ShardedStreamingJoin::insert`] probes the symmetric window
//! `[|T| − τ, |T| + τ]`, reports the partners found among the live
//! trees, and then publishes the newcomer into the shard owning its
//! size: its subgraphs or, below `δ = 2τ + 1` nodes, a side-list entry
//! in that shard's index. One [`partsj::Prober`] takes every arrival
//! through both steps — the probe over the window's shards and the δ
//! rule ([`partsj::Prober::partition`]).
//!
//! An insert-only index grows forever, which no high-rate monitor can
//! afford, so the join runs on the dynamic [`ShardedIndex`] and adds the
//! two operations a sliding window needs —
//! [`ShardedStreamingJoin::remove`] (explicit deletion) and automatic
//! **eviction** under an [`EvictionPolicy`] (by window count or by
//! logical timestamp; [`EvictionPolicy::Retain`] at one shard is the
//! plain insert-only join). Evicted trees stop appearing as partners
//! immediately; a side-listed one leaves its list at once, and the
//! others' postings are tombstoned and swept out of their shard's index
//! in place once enough of it is dead, so index memory tracks the live
//! window rather than the stream's lifetime.
//!
//! The streaming index always routes with the default hash
//! [`crate::ShardMap`]: a balanced map is derived from the *observed*
//! size histogram, which a stream only reveals after the routing
//! decisions are already made ([`crate::ShardConfig::balanced_shards`]
//! is a batch/freeze-time knob and is ignored here).
//!
//! A tree's verification inputs are freed at eviction and their slot
//! once every older arrival is gone too, so under a sliding policy they
//! take a window's worth of memory. The rest of the per-tree bookkeeping
//! (`4 B` stamp + `1 B` liveness flag + `4 B` size) still grows
//! with the total stream length — ids are never recycled, keeping
//! reported partner indices stable. At one insert per millisecond that
//! is ~midnight-of-49-days before `u32` ids wrap; recycle ids upstream
//! if you need longer-lived monitors.
//!
//! ```
//! use partsj::PartSjConfig;
//! use tsj_shard::{EvictionPolicy, ShardConfig, ShardedStreamingJoin};
//! use tsj_tree::{parse_bracket, LabelInterner};
//!
//! let mut labels = LabelInterner::new();
//! let mut join = ShardedStreamingJoin::new(
//!     1,
//!     PartSjConfig::default(),
//!     ShardConfig::default(),
//!     EvictionPolicy::SlidingCount(2), // keep the 2 most recent trees
//! );
//! let t0 = parse_bracket("{a{b}{c}}", &mut labels).unwrap();
//! let t1 = parse_bracket("{a{b}{z}}", &mut labels).unwrap();
//! assert!(join.insert(&t0).is_empty());
//! assert_eq!(join.insert(&t1), vec![0]);
//! // The third insert slides t0 out of the window: a re-submission of
//! // t0's exact shape only finds t1 now.
//! let t2 = parse_bracket("{a{b}{c}}", &mut labels).unwrap();
//! assert_eq!(join.insert(&t2), vec![1]);
//! // …and the next one finds only t2 (t1 was evicted in turn).
//! let t3 = parse_bracket("{a{b}{c}}", &mut labels).unwrap();
//! assert_eq!(join.insert(&t3), vec![2]);
//! assert_eq!(join.evictions(), 2);
//! ```

use crate::index::{ShardConfig, ShardedIndex};
use partsj::{window_of, PartSjConfig, Prober, VerifyData, VerifyEngine, VerifyPrep};
use std::collections::VecDeque;
use tsj_ted::TreeIdx;
use tsj_tree::Tree;

/// When the sliding window lets go of a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Never evict — the plain streaming join, dynamic index included.
    #[default]
    Retain,
    /// Keep at most this many most-recent trees (`0` keeps none).
    SlidingCount(usize),
    /// Keep trees whose logical timestamp is within `horizon` of the
    /// newest insert: a tree stamped `t` is evicted once an insert
    /// arrives at `now ≥ t + horizon`. [`ShardedStreamingJoin::insert`]
    /// stamps arrival ordinals (0, 1, 2, …); use
    /// [`ShardedStreamingJoin::insert_at`] for caller-supplied
    /// (non-decreasing) timestamps.
    SlidingTime(u64),
}

/// [`ShardedStreamingJoin::insert_at`] refused an arrival stamped behind
/// the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleTimestamp {
    /// The refused timestamp.
    pub ts: u64,
    /// The largest timestamp admitted so far.
    pub latest: u64,
}

impl std::fmt::Display for StaleTimestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let StaleTimestamp { ts, latest } = self;
        write!(f, "timestamp {ts} is behind the stream's newest, {latest}")
    }
}

impl std::error::Error for StaleTimestamp {}

/// An online similarity self-join over a sliding window: insert trees as
/// they arrive, learn each newcomer's partners among the *live* window,
/// and let the policy expire old trees. See the [module
/// docs](crate::streaming) for an example.
#[derive(Debug)]
pub struct ShardedStreamingJoin {
    tau: u32,
    config: PartSjConfig,
    eviction: EvictionPolicy,
    index: ShardedIndex,
    /// Verification inputs of arrivals `first..`, `None` once evicted.
    /// Leading `None`s are dropped as the window slides, so a sliding
    /// window holds about a window of these slots, not one per arrival
    /// ever.
    data: VecDeque<Option<VerifyData>>,
    /// Arrival ordinal of `data[0]`.
    first: usize,
    /// The one prober of every insert — its probe step and its δ rule —
    /// held across inserts so the steady-state path allocates nothing
    /// proportional to the stream.
    prober: Prober,
    verify_prep: VerifyPrep,
    arrivals: VecDeque<(TreeIdx, u64)>,
    /// Next auto-assigned timestamp for [`Self::insert`].
    clock: u64,
    /// Largest timestamp admitted (monotonicity guard; equal is allowed).
    last_ts: u64,
    verify: VerifyEngine,
    pairs_found: u64,
    evictions: u64,
    /// Hoisted observability handle (global registry, sampled at
    /// construction); the paired live-trees/postings gauges are kept by
    /// the index itself.
    obs_evictions: Option<tsj_obs::Counter>,
}

impl ShardedStreamingJoin {
    /// Creates an empty sliding-window join at threshold `tau`.
    pub fn new(
        tau: u32,
        config: PartSjConfig,
        shard_cfg: ShardConfig,
        eviction: EvictionPolicy,
    ) -> ShardedStreamingJoin {
        ShardedStreamingJoin {
            tau,
            config,
            eviction,
            index: ShardedIndex::new(tau, config.window, &shard_cfg),
            data: VecDeque::new(),
            first: 0,
            prober: Prober::default(),
            verify_prep: VerifyPrep::default(),
            arrivals: VecDeque::new(),
            clock: 0,
            last_ts: 0,
            verify: VerifyEngine::new(tau, &config),
            pairs_found: 0,
            evictions: 0,
            obs_evictions: tsj_obs::global()
                .is_enabled()
                .then(|| tsj_obs::global().counter("tsj_shard_evictions_total")),
        }
    }

    /// Trees ever inserted (evicted ones included).
    pub fn len(&self) -> usize {
        self.first + self.data.len()
    }

    /// Whether nothing was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Trees currently live in the window.
    pub fn live(&self) -> usize {
        self.index.live_trees()
    }

    /// Total result pairs reported so far.
    pub fn pairs_found(&self) -> u64 {
        self.pairs_found
    }

    /// Trees expired by the eviction policy or [`Self::remove`].
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Shard sweeps performed so far (tombstone reclamation).
    pub fn compactions(&self) -> u64 {
        self.index.compactions()
    }

    /// Exact TED computations performed so far.
    pub fn ted_calls(&self) -> u64 {
        self.verify.ted_calls()
    }

    /// The verification engine (per-stage counter diagnostics).
    pub fn verify_engine(&self) -> &VerifyEngine {
        &self.verify
    }

    /// The underlying sharded index (diagnostics).
    pub fn index(&self) -> &ShardedIndex {
        &self.index
    }

    /// Inserts `tree` at the next arrival ordinal — never behind an
    /// earlier timestamp, hence infallible — and returns the live
    /// partners within `τ`, ascending.
    pub fn insert(&mut self, tree: &Tree) -> Vec<TreeIdx> {
        self.admit(tree, self.clock)
    }

    /// [`Self::insert`] at logical time `ts`. Timestamps must not go
    /// backwards (equal ones — simultaneous arrivals — are fine): a
    /// stale one is refused and leaves the window exactly as it was.
    pub fn insert_at(&mut self, tree: &Tree, ts: u64) -> Result<Vec<TreeIdx>, StaleTimestamp> {
        let latest = self.last_ts;
        if ts < latest {
            return Err(StaleTimestamp { ts, latest });
        }
        Ok(self.admit(tree, ts))
    }

    /// One arrival at `ts ≥ last_ts`: evict, probe, verify, publish.
    fn admit(&mut self, tree: &Tree, ts: u64) -> Vec<TreeIdx> {
        self.last_ts = ts;
        self.clock = ts.saturating_add(1);
        self.evict_for(ts);

        let id = self.len() as TreeIdx;

        // Candidates from the sharded index: each shard's side-listed
        // trees, then its postings (dead trees gated out).
        let prober = &mut self.prober;
        let size = prober.prepare(tree);
        let window = window_of(size, self.tau);
        let (found, ..) = prober.probe(&self.index, window, id as usize, self.config.matching);

        // Verify against the live window. The newcomer's data is owned —
        // it outlives the insert in `self.data` — so only the build
        // temporaries come from the reusable prep.
        let data = VerifyData::build(tree, &mut self.verify_prep);
        let verify = &mut self.verify;
        let (known, first) = (&self.data, self.first);
        let verified = |&&j: &&TreeIdx| {
            let other = known[j as usize - first]
                .as_ref()
                .expect("live candidate has verification data");
            verify.check(other, &data).is_some()
        };
        let mut partners: Vec<TreeIdx> = found.iter().filter(verified).copied().collect();
        partners.sort_unstable();
        self.pairs_found += partners.len() as u64;

        // Publish the newcomer: its subgraphs, or a side-list entry.
        let subgraphs = self
            .prober
            .partition(self.tau, self.config.partitioning, id);
        self.index.insert(id, size, subgraphs);
        self.data.push_back(Some(data));
        self.arrivals.push_back((id, ts));
        partners
    }

    /// Explicitly removes a live tree from the window (deletion, not
    /// policy eviction — but counted in [`Self::evictions`] all the
    /// same). Returns `false` if `id` is unknown or already gone.
    pub fn remove(&mut self, id: TreeIdx) -> bool {
        if !self.index.is_alive(id) {
            return false;
        }
        self.expire(id);
        true
    }

    /// Applies the eviction policy for an insert arriving at `now`.
    fn evict_for(&mut self, now: u64) {
        match self.eviction {
            EvictionPolicy::Retain => {}
            EvictionPolicy::SlidingCount(k) => {
                // After the pending insert the window holds ≤ k trees.
                let keep = k.saturating_sub(1);
                while self.index.live_trees() > keep {
                    let Some((id, _)) = self.arrivals.pop_front() else {
                        break;
                    };
                    if self.index.is_alive(id) {
                        self.expire(id);
                    }
                }
            }
            EvictionPolicy::SlidingTime(horizon) => {
                while let Some(&(id, ts)) = self.arrivals.front() {
                    if now < ts.saturating_add(horizon) {
                        break;
                    }
                    self.arrivals.pop_front();
                    if self.index.is_alive(id) {
                        self.expire(id);
                    }
                }
            }
        }
    }

    /// Drops one live tree: from the index (liveness flag, then its
    /// side-list entry or its tombstones, with the sweep) and its
    /// verification slot (and the leading empty slots).
    fn expire(&mut self, id: TreeIdx) {
        self.index.remove_tree(id);
        self.data[id as usize - self.first] = None;
        while let Some(None) = self.data.front() {
            self.data.pop_front();
            self.first += 1;
        }
        self.evictions += 1;
        if let Some(counter) = &self.obs_evictions {
            counter.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_tree::{parse_bracket, LabelInterner};

    /// Verification slots span the window, not the stream: an explicit
    /// removal inside the window holds its slot only until every older
    /// arrival has gone, and `len` still counts every arrival.
    #[test]
    fn verification_slots_follow_the_window() {
        let mut labels = LabelInterner::new();
        let trees: Vec<Tree> = ["{a{b}{c}}", "{a{b}{c}{d}}", "{x{y}}", "{a{b{c}{d}}}"]
            .iter()
            .map(|s| parse_bracket(s, &mut labels).unwrap())
            .collect();
        let window = 3;
        let mut join = ShardedStreamingJoin::new(
            1,
            PartSjConfig::default(),
            ShardConfig::with_shards(2),
            EvictionPolicy::SlidingCount(window),
        );
        for i in 0..200 {
            join.insert(&trees[i % trees.len()]);
            if i % 7 == 0 {
                assert!(join.remove(i as TreeIdx));
            }
            assert_eq!(join.len(), i + 1);
            assert!(join.data.len() <= window + 1, "{} slots", join.data.len());
            assert!(!matches!(join.data.front(), Some(None)));
        }

        let mut all = ShardedStreamingJoin::new(
            1,
            PartSjConfig::default(),
            ShardConfig::with_shards(2),
            EvictionPolicy::Retain,
        );
        for tree in &trees {
            all.insert(tree);
        }
        assert_eq!((all.first, all.data.len()), (0, trees.len()));
    }
}
