//! The unified verification engine: a fixed chain of four cheap bounds
//! in front of exact TED.
//!
//! Every join entry point — sequential, R×S and top-k in this crate,
//! plus the pooled, streaming and point-query paths of `tsj-shard` and
//! `tsj-catalog` — verifies candidate pairs the same way: run cheap
//! distance *bounds* first and fall back to the exact-TED DP only when no
//! bound decides the pair. [`VerifyEngine`] owns that pipeline once.
//!
//! ## The filter chain
//!
//! The chain is the **closed** set [`VERIFY_STAGES`], always evaluated in
//! this one order (cheapest first); [`VerifyConfig`] only switches
//! individual stages off:
//!
//! | # | stage | kind | per-pair cost | decides |
//! |---|----------------|-------|----------------------|---------|
//! | 1 | `size` | lower | O(1) | reject |
//! | 2 | `shape-accept` | upper | O(1), O(n) on hit | accept |
//! | 3 | `label-hist` | lower | O(n) merge | reject |
//! | 4 | `traversal-sed`| lower | O(τ·n) banded DP | reject |
//! | — | exact TED | — | O(n·τ) cells per surviving keyroot pair | both |
//!
//! A **lower-bound** stage computes `lb ≤ TED` and rejects when
//! `lb > τ`; rejection can never drop a true result. An **upper-bound**
//! stage exhibits a concrete edit script of cost `ub ≥ TED` and accepts
//! when `ub ≤ τ`; acceptance can never add a false result. Either way
//! the pair is *resolved* without the expensive DP, and the stage's
//! counter records it ([`JoinStats::stage_counts`]).
//!
//! The exact fallback is [`TedEngine::verify`], the τ-bounded
//! Zhang–Shasha kernel: it only has to answer "≤ τ, and the value if so",
//! so it fills the `|x − y| ≤ τ` band of each forest table and skips
//! keyroot pairs whose leftmost leaves are more than 2τ apart. It counts
//! one computation per pair, exactly as the full DP did. The unbounded DP
//! ([`TedEngine::distance`]) stays what `tsj-baselines` and every test
//! oracle run — the independent verifier.
//!
//! ## Why the early accept hashes shapes instead of reusing SED
//!
//! A tempting upper bound is the exact traversal-string SED itself —
//! "if `SED ≤ τ`, accept". It is **unsound**: SED of preorder/postorder
//! strings *lower*-bounds TED (that is exactly why stage 4 may reject
//! with it). The paper's own Figure 3 pair (`{1{2}{1{3}}}` vs
//! `{1{2{1}{3}}}`) has `max(SED) = 2` but `TED = 3`, so SED-accepting at
//! `τ = 2` would report a false pair — the regression test
//! `sed_accept_would_be_unsound` pins this counterexample. The sound
//! replacement: when two trees have the *same shape* (equal preorder
//! degree sequences — which uniquely determine an ordered tree), renaming
//! every label mismatch in place is a valid edit script, so the label
//! Hamming distance upper-bounds TED. Near-duplicate corpora are full of
//! rename-only pairs, which makes this the stage that eliminates most
//! TED calls on the paper's workloads.

use crate::config::{PartSjConfig, VerifyConfig};
use std::cell::Cell;
use std::hash::Hasher as _;
use std::time::Instant;
use tsj_ted::bounds::{histogram_bound, traversal_within_with, TraversalStrings};
use tsj_ted::{JoinStats, PreparedTree, SedScratch, StageCount, TedBuildScratch, TedEngine};
use tsj_tree::{FxHasher, Label, NodeId, Tree};

/// Per-tree verification inputs, precomputed once at index-build /
/// data-prep time so every stage is allocation-free per pair.
///
/// Built with [`VerifyData::for_config`], only the inputs of *enabled*
/// stages are materialized (disabled ones stay empty, and every stage
/// skips itself on empty inputs — trees are never empty, so emptiness
/// is unambiguous). A fully populated instance from [`VerifyData::new`]
/// works with any chain.
#[derive(Debug, Clone)]
pub struct VerifyData {
    /// Both TED decompositions, for the exact fallback.
    pub prepared: PreparedTree,
    /// Preorder/postorder label strings (traversal-SED stage; the
    /// preorder string doubles as the rename-script label sequence).
    pub traversals: TraversalStrings,
    /// Sorted label multiset (label-histogram stage).
    pub histogram: Vec<Label>,
    /// Preorder child-count sequence — uniquely identifies the ordered
    /// tree *shape* (shape-accept stage).
    pub shape: Vec<u32>,
    /// Fx-style hash of [`VerifyData::shape`]: O(1) shape inequality.
    pub shape_hash: u64,
}

/// Reusable temporaries for [`VerifyData`] preparation: the TED-tree
/// build scratch plus the traversal walk stacks. One instance batched
/// across a whole collection ([`VerifyData::batch_for_config`]) or
/// carried in a probe scratch ([`VerifyData::rebuild`]) makes repeated
/// preparation allocation-free in steady state.
#[derive(Debug, Default)]
pub struct VerifyPrep {
    ted: TedBuildScratch,
    pre_stack: Vec<NodeId>,
    post_stack: Vec<(NodeId, usize)>,
}

impl VerifyPrep {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> VerifyPrep {
        VerifyPrep::default()
    }
}

impl VerifyData {
    /// Precomputes every stage's inputs for `tree`.
    pub fn new(tree: &Tree) -> VerifyData {
        VerifyData::for_config(tree, &VerifyConfig::ALL)
    }

    /// Precomputes the inputs of the stages `filters` enables; disabled
    /// stages cost neither setup time nor memory.
    pub fn for_config(tree: &Tree, filters: &VerifyConfig) -> VerifyData {
        VerifyData::for_config_with(tree, filters, &mut VerifyPrep::new())
    }

    /// [`VerifyData::for_config`] using caller-provided preparation
    /// temporaries — the building block of [`VerifyData::batch_for_config`].
    pub fn for_config_with(
        tree: &Tree,
        filters: &VerifyConfig,
        prep: &mut VerifyPrep,
    ) -> VerifyData {
        let mut data = VerifyData {
            prepared: PreparedTree::new_with(tree, &mut prep.ted),
            traversals: TraversalStrings {
                preorder: Vec::new(),
                postorder: Vec::new(),
            },
            histogram: Vec::new(),
            shape: Vec::new(),
            shape_hash: 0,
        };
        data.fill_stage_inputs(tree, filters, prep);
        data
    }

    /// Prepares a whole collection through one shared set of temporaries
    /// (full stage inputs, as [`VerifyData::new`] per tree).
    pub fn batch(trees: &[Tree]) -> Vec<VerifyData> {
        VerifyData::batch_for_config(trees, &VerifyConfig::ALL)
    }

    /// Prepares a whole collection through one shared set of temporaries,
    /// materializing only the inputs of enabled stages. Equivalent to
    /// mapping [`VerifyData::for_config`] but the walk/build scratch is
    /// allocated once instead of per tree.
    pub fn batch_for_config(trees: &[Tree], filters: &VerifyConfig) -> Vec<VerifyData> {
        let mut prep = VerifyPrep::new();
        trees
            .iter()
            .map(|tree| VerifyData::for_config_with(tree, filters, &mut prep))
            .collect()
    }

    /// Rebuilds this instance in place for a new `tree`, reusing every
    /// buffer. Equivalent to `*self = VerifyData::for_config(tree,
    /// filters)` but allocation-free once buffers fit the largest tree
    /// seen — repeated probes reuse one instance through a scratch.
    pub fn rebuild(&mut self, tree: &Tree, filters: &VerifyConfig, prep: &mut VerifyPrep) {
        self.prepared.rebuild(tree, &mut prep.ted);
        self.fill_stage_inputs(tree, filters, prep);
    }

    /// (Re)fills the per-stage inputs: one preorder walk produces the
    /// preorder label string, the shape sequence and its hash together;
    /// one postorder walk produces the postorder string; the histogram
    /// is an in-place sort. All buffers are cleared first, so disabled
    /// stages leave their inputs unambiguously empty.
    fn fill_stage_inputs(&mut self, tree: &Tree, filters: &VerifyConfig, prep: &mut VerifyPrep) {
        self.traversals.preorder.clear();
        self.traversals.postorder.clear();
        self.histogram.clear();
        self.shape.clear();
        self.shape_hash = 0;

        // The shape-accept stage reads the preorder string too (the
        // rename-script label sequence).
        let want_traversals = filters.traversal || filters.shape_accept;
        if want_traversals || filters.shape_accept {
            let mut hasher = FxHasher::default();
            prep.pre_stack.clear();
            prep.pre_stack.push(tree.root());
            while let Some(node) = prep.pre_stack.pop() {
                if want_traversals {
                    self.traversals.preorder.push(tree.label(node));
                }
                if filters.shape_accept {
                    let degree = tree.children(node).len() as u32;
                    self.shape.push(degree);
                    hasher.write_u32(degree);
                }
                for &child in tree.children(node).iter().rev() {
                    prep.pre_stack.push(child);
                }
            }
            if filters.shape_accept {
                self.shape_hash = hasher.finish();
            }
        }
        if want_traversals {
            prep.post_stack.clear();
            prep.post_stack.push((tree.root(), 0));
            while let Some(&mut (node, ref mut next)) = prep.post_stack.last_mut() {
                let children = tree.children(node);
                if *next < children.len() {
                    let child = children[*next];
                    *next += 1;
                    prep.post_stack.push((child, 0));
                } else {
                    self.traversals.postorder.push(tree.label(node));
                    prep.post_stack.pop();
                }
            }
        }
        if filters.histogram {
            self.histogram
                .extend(tree.node_ids().map(|n| tree.label(n)));
            self.histogram.sort_unstable();
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.prepared.len()
    }

    /// Trees are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A reusable probe-side [`VerifyData`] slot: one data instance plus its
/// preparation temporaries, rebuilt in place per probe tree. Holding one
/// across a query/insert loop makes the per-probe verification setup
/// allocation-free once the buffers fit the largest probe seen.
#[derive(Debug, Default)]
pub struct ProbeVerify {
    prep: VerifyPrep,
    data: Option<VerifyData>,
}

impl ProbeVerify {
    /// An empty slot; buffers are grown on first use.
    pub fn new() -> ProbeVerify {
        ProbeVerify::default()
    }

    /// Prepares the verification inputs of `tree` for the stages
    /// `filters` enables. The result is valid until the next call.
    pub fn prepare(&mut self, tree: &Tree, filters: &VerifyConfig) -> &VerifyData {
        match &mut self.data {
            Some(data) => data.rebuild(tree, filters, &mut self.prep),
            None => self.data = Some(VerifyData::for_config_with(tree, filters, &mut self.prep)),
        }
        self.data.as_ref().expect("prepared above")
    }
}

/// The verify chain's stage names — a closed set, in the one order the
/// engine evaluates them. [`StageCount::stage`] only ever holds one of
/// these.
pub const VERIFY_STAGES: [&str; 4] = ["size", "shape-accept", "label-hist", "traversal-sed"];

// Positions in [`VERIFY_STAGES`] (and in the engine's counter arrays).
const STAGES: usize = VERIFY_STAGES.len();
const SIZE: usize = 0;
const SHAPE_ACCEPT: usize = 1;
const LABEL_HIST: usize = 2;
const TRAVERSAL_SED: usize = 3;

/// The `&'static` spelling of a stage name, or `None` for anything
/// outside [`VERIFY_STAGES`] — how a decoder turns a name read off the
/// wire back into a [`StageCount::stage`].
pub fn verify_stage(name: &str) -> Option<&'static str> {
    VERIFY_STAGES.into_iter().find(|stage| *stage == name)
}

/// Size lower bound `||T1| − |T2|| ≤ TED` (§3.2 footnote 1).
#[inline]
fn size_rejects(a: &VerifyData, b: &VerifyData, tau: u32) -> bool {
    a.len().abs_diff(b.len()) as u32 > tau
}

/// Rename-script early accept: same shape ⇒ TED ≤ label Hamming
/// distance (`Some(hamming)` when that is ≤ `tau`). See the module docs
/// for why this replaces the (unsound) SED-based accept.
#[inline]
fn shape_certificate(a: &VerifyData, b: &VerifyData, tau: u32) -> Option<u32> {
    // An empty shape means the input was built without this stage
    // (trees are never empty): no decision. The preorder-length
    // check rejects mixed-construction inputs the same way.
    if a.shape.is_empty()
        || a.shape_hash != b.shape_hash
        || a.shape != b.shape
        || a.traversals.preorder.len() != a.shape.len()
        || b.traversals.preorder.len() != b.shape.len()
    {
        return None;
    }
    // Equal preorder degree sequences ⇒ identical shapes; mapping
    // nodes by preorder position and renaming every label mismatch is
    // a valid edit script of cost `hamming`.
    let mut hamming = 0u32;
    for (&la, &lb) in a.traversals.preorder.iter().zip(&b.traversals.preorder) {
        hamming += u32::from(la != lb);
        if hamming > tau {
            return None;
        }
    }
    Some(hamming)
}

/// Label-histogram L1 lower bound `⌈L1/2⌉ ≤ TED` (Kailing et al.).
#[inline]
fn histogram_rejects(a: &VerifyData, b: &VerifyData, tau: u32) -> bool {
    // Empty histogram = input built without this stage: no decision
    // (a one-sided empty histogram would inflate the L1 bound).
    !a.histogram.is_empty()
        && !b.histogram.is_empty()
        && histogram_bound(&a.histogram, &b.histogram) > tau
}

/// Banded traversal-string SED lower bound
/// `max(SED(pre), SED(post)) ≤ TED` (Guha et al.).
#[inline]
fn traversal_rejects(a: &VerifyData, b: &VerifyData, tau: u32, sed: &mut SedScratch) -> bool {
    // Empty strings = input built without this stage: no decision
    // (a one-sided empty string would inflate the SED bound).
    !a.traversals.preorder.is_empty()
        && !b.traversals.preorder.is_empty()
        && !traversal_within_with(&a.traversals, &b.traversals, tau, sed)
}

/// The verification engine: the filter chain, one exact-TED engine, and
/// the per-stage counters — everything one verifier thread needs.
///
/// Entry points create one engine per verifying thread (the sequential
/// joins own one; `tsj-shard`'s verify pool builds one per worker)
/// and fold the counters into the run's [`JoinStats`] at the end with
/// [`VerifyEngine::fold_into`]. The stage order is fixed, so every
/// engine given the same pairs reports the same per-stage counters.
#[derive(Debug)]
pub struct VerifyEngine {
    tau: u32,
    /// Which of [`VERIFY_STAGES`] run, by position.
    enabled: [bool; STAGES],
    /// Pairs resolved per stage, by position.
    counts: [u64; STAGES],
    /// Total lower-bound rejections (sum over lower stages).
    lower_skips: u64,
    /// Total upper-bound admissions (`shape-accept`).
    early_accepts: u64,
    /// Whether to stopwatch each stage evaluation. Sampled from
    /// [`tsj_obs::stage_timings_enabled`] at construction (off by
    /// default: the `Instant` stamps would dominate the O(1) stages).
    time_stages: bool,
    /// Accumulated per-stage wall time in nanoseconds, by position;
    /// only written when `time_stages` is set.
    stage_ns: [u64; STAGES],
    /// One-shot guard so [`VerifyEngine::fold_into`] publishes the stage
    /// timings to the global registry exactly once per engine.
    timings_flushed: Cell<bool>,
    /// Row/band buffers of the `traversal-sed` stage; engines are
    /// per-worker, so no locking and no per-pair allocation.
    sed: SedScratch,
    ted: TedEngine,
}

impl VerifyEngine {
    /// Engine for threshold `tau` with the stages `config.verify`
    /// enables.
    pub fn new(tau: u32, config: &PartSjConfig) -> VerifyEngine {
        VerifyEngine::with_filters(tau, &config.verify)
    }

    /// Engine for threshold `tau` with an explicit stage selection.
    pub fn with_filters(tau: u32, filters: &VerifyConfig) -> VerifyEngine {
        VerifyEngine {
            tau,
            enabled: [
                filters.size,
                filters.shape_accept,
                filters.histogram,
                filters.traversal,
            ],
            counts: [0; STAGES],
            lower_skips: 0,
            early_accepts: 0,
            time_stages: tsj_obs::stage_timings_enabled() && tsj_obs::global().is_enabled(),
            stage_ns: [0; STAGES],
            timings_flushed: Cell::new(false),
            sed: SedScratch::default(),
            ted: TedEngine::unit(),
        }
    }

    /// The threshold the engine verifies against.
    pub fn tau(&self) -> u32 {
        self.tau
    }

    /// Tightens (or relaxes) the verification threshold in place. The
    /// top-k join mode shrinks τ to the current k-th best distance as
    /// its result heap fills; counters carry over unchanged.
    pub fn set_tau(&mut self, tau: u32) {
        self.tau = tau;
    }

    /// The enabled stages' names: the subsequence of [`VERIFY_STAGES`]
    /// this engine evaluates, and the rows [`VerifyEngine::fold_into`]
    /// reports, in that order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages().map(|(_, name)| name).collect()
    }

    /// `(position, name)` of every enabled stage, in chain order.
    fn stages(&self) -> impl Iterator<Item = (usize, &'static str)> + '_ {
        let enabled = self.enabled;
        VERIFY_STAGES
            .into_iter()
            .enumerate()
            .filter(move |&(stage, _)| enabled[stage])
    }

    /// Exact TED computations performed so far.
    pub fn ted_calls(&self) -> u64 {
        self.ted.computations()
    }

    /// Pairs admitted by an upper bound without exact TED so far.
    pub fn early_accepts(&self) -> u64 {
        self.early_accepts
    }

    /// Pairs rejected by a lower bound so far.
    pub fn prefilter_skips(&self) -> u64 {
        self.lower_skips
    }

    /// Zeroes every work counter (stage counts, TED calls, skip/accept
    /// totals) while keeping all scratch capacity. Callers that reuse one
    /// engine across independent runs (e.g. repeated scratch joins) reset
    /// between runs so each run's [`VerifyEngine::fold_into`] reports only
    /// its own work.
    pub fn reset_counters(&mut self) {
        self.counts = [0; STAGES];
        self.stage_ns = [0; STAGES];
        self.lower_skips = 0;
        self.early_accepts = 0;
        self.ted.reset_counters();
    }

    /// Membership check: `Some(d)` iff `TED(a, b) ≤ τ`, where `d ≤ τ` is
    /// a distance certificate — exact unless `shape-accept` resolved the
    /// pair with a rename script of two or more renames, which may
    /// overestimate. Joins and streaming monitors (which report pair
    /// *sets*) use this; use [`VerifyEngine::check_exact`] when the caller
    /// surfaces the distance value.
    pub fn check(&mut self, a: &VerifyData, b: &VerifyData) -> Option<u32> {
        self.decide(a, b, false)
    }

    /// Like [`VerifyEngine::check`] but the returned distance is always
    /// **exact**: `shape-accept` only short-circuits when its certificate
    /// is provably tight; otherwise the pair falls through to the exact
    /// TED DP. Point queries and the top-k join use this to report
    /// `(tree, distance)` hits.
    pub fn check_exact(&mut self, a: &VerifyData, b: &VerifyData) -> Option<u32> {
        self.decide(a, b, true)
    }

    /// The chain walk behind both check flavours: each enabled stage in
    /// [`VERIFY_STAGES`] order, then exact TED.
    fn decide(&mut self, a: &VerifyData, b: &VerifyData, exact: bool) -> Option<u32> {
        let tau = self.tau;
        if self.enabled[SIZE] && self.timed(SIZE, |_| size_rejects(a, b, tau)) {
            return self.reject(SIZE);
        }
        if self.enabled[SHAPE_ACCEPT] {
            // hamming = 0 ⇒ identical trees ⇒ TED = 0. hamming = 1 with
            // equal sizes ⇒ the trees differ, so TED ≥ 1 — the bound is
            // tight. From 2 on, mixed insert/delete scripts can be cheaper
            // than renames, so the certificate is only an upper bound and
            // an `exact` caller falls through.
            match self.timed(SHAPE_ACCEPT, |_| shape_certificate(a, b, tau)) {
                Some(hamming) if hamming <= 1 || !exact => {
                    self.counts[SHAPE_ACCEPT] += 1;
                    self.early_accepts += 1;
                    return Some(hamming);
                }
                _ => {}
            }
        }
        if self.enabled[LABEL_HIST] && self.timed(LABEL_HIST, |_| histogram_rejects(a, b, tau)) {
            return self.reject(LABEL_HIST);
        }
        if self.enabled[TRAVERSAL_SED]
            && self.timed(TRAVERSAL_SED, |e| traversal_rejects(a, b, tau, &mut e.sed))
        {
            return self.reject(TRAVERSAL_SED);
        }
        self.ted.verify(&a.prepared, &b.prepared, tau)
    }

    /// Runs one stage's bound, stopwatched in profile mode.
    #[inline]
    fn timed<R>(&mut self, stage: usize, bound: impl FnOnce(&mut VerifyEngine) -> R) -> R {
        if !self.time_stages {
            return bound(self);
        }
        let started = Instant::now();
        let verdict = bound(self);
        self.stage_ns[stage] += started.elapsed().as_nanos() as u64;
        verdict
    }

    /// Records a lower-bound rejection at `stage`.
    #[inline]
    fn reject(&mut self, stage: usize) -> Option<u32> {
        self.counts[stage] += 1;
        self.lower_skips += 1;
        None
    }

    /// Folds this engine's counters into `stats`: TED calls, total
    /// lower-bound skips, upper-bound accepts, and one row per enabled
    /// stage. Stage counters merge **by stage name**, so engines with
    /// differently enabled chains fold into one coherent breakdown.
    /// First-folded engines establish the display order of stages not
    /// yet present.
    pub fn fold_into(&self, stats: &mut JoinStats) {
        stats.ted_calls += self.ted.computations();
        stats.prefilter_skips += self.lower_skips;
        stats.early_accepts += self.early_accepts;
        if stats.stage_counts.is_empty() {
            // One exact allocation instead of push-doubling growth — the
            // stage-count rows are the only allocation a recycled join
            // makes per call.
            stats.stage_counts.reserve_exact(self.stages().count());
        }
        for (idx, name) in self.stages() {
            match stats.stage_counts.iter_mut().find(|c| c.stage == name) {
                Some(slot) => slot.count += self.counts[idx],
                None => stats.stage_counts.push(StageCount {
                    stage: name,
                    count: self.counts[idx],
                }),
            }
        }
        // Publish stage timings (profile mode) exactly once per engine —
        // fold_into may be called again on a still-live engine.
        if self.time_stages && !self.timings_flushed.replace(true) {
            let obs = tsj_obs::global();
            for (idx, name) in self.stages() {
                obs.counter(&tsj_obs::labeled(
                    "tsj_core_verify_stage_ns_total",
                    "stage",
                    name,
                ))
                .add(self.stage_ns[idx]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_tree::{parse_bracket, LabelInterner};

    fn data(specs: &[&str]) -> Vec<VerifyData> {
        let mut labels = LabelInterner::new();
        specs
            .iter()
            .map(|s| VerifyData::new(&parse_bracket(s, &mut labels).unwrap()))
            .collect()
    }

    /// The stage selection whose toggles are the low four bits of `mask`,
    /// in [`VERIFY_STAGES`] order.
    fn config_of(mask: u32) -> VerifyConfig {
        let on = |bit: u32| mask & (1 << bit) != 0;
        VerifyConfig {
            size: on(0),
            shape_accept: on(1),
            histogram: on(2),
            traversal: on(3),
        }
    }

    #[test]
    fn default_chain_order_is_cheapest_first() {
        let engine = VerifyEngine::with_filters(1, &VerifyConfig::default());
        assert_eq!(engine.stage_names(), VERIFY_STAGES);
        // Every toggle mask evaluates the canonical subsequence.
        for mask in 0..16u32 {
            let filters = config_of(mask);
            let want: Vec<&str> = (0..4)
                .filter(|&bit| mask & (1 << bit) != 0)
                .map(|bit| VERIFY_STAGES[bit as usize])
                .collect();
            let engine = VerifyEngine::with_filters(1, &filters);
            assert_eq!(engine.stage_names(), want, "mask {mask:04b}");
        }
        for name in VERIFY_STAGES {
            assert_eq!(verify_stage(name), Some(name));
        }
        assert_eq!(verify_stage("twig"), None);
    }

    #[test]
    fn identical_trees_accept_without_ted() {
        let d = data(&["{a{b}{c}}", "{a{b}{c}}"]);
        let mut engine = VerifyEngine::with_filters(0, &VerifyConfig::default());
        assert_eq!(engine.check(&d[0], &d[1]), Some(0));
        assert_eq!(engine.ted_calls(), 0);
        assert_eq!(engine.early_accepts(), 1);
    }

    #[test]
    fn rename_only_pair_accepts_exactly() {
        let d = data(&["{a{b}{c}}", "{a{b}{z}}"]);
        let mut engine = VerifyEngine::with_filters(1, &VerifyConfig::default());
        // One rename: exact certificate, both check flavours short-circuit.
        assert_eq!(engine.check_exact(&d[0], &d[1]), Some(1));
        assert_eq!(engine.ted_calls(), 0);
    }

    #[test]
    fn inexact_certificate_falls_through_in_check_exact() {
        // Path a→b→c vs b→c→a: same shape, hamming 3, but TED = 2
        // (delete the root `a`, insert `a` below `c`).
        let d = data(&["{a{b{c}}}", "{b{c{a}}}"]);
        let mut engine = VerifyEngine::with_filters(3, &VerifyConfig::default());
        assert_eq!(engine.check(&d[0], &d[1]), Some(3), "upper certificate");
        assert_eq!(engine.ted_calls(), 0);
        assert_eq!(engine.check_exact(&d[0], &d[1]), Some(2), "exact distance");
        assert_eq!(engine.ted_calls(), 1);
    }

    #[test]
    fn sed_accept_would_be_unsound() {
        // Figure 3 of the paper: max(SED(pre), SED(post)) = 2 < TED = 3.
        // An "exact SED ≤ τ accepts" stage would report a false pair at
        // τ = 2; the shape-accept stage must not (shapes differ here).
        let d = data(&["{1{2}{1{3}}}", "{1{2{1}{3}}}"]);
        assert!(tsj_ted::traversal_within(
            &d[0].traversals,
            &d[1].traversals,
            2
        ));
        let mut engine = VerifyEngine::with_filters(2, &VerifyConfig::default());
        assert_eq!(engine.check(&d[0], &d[1]), None);
        assert_eq!(engine.ted_calls(), 1, "only exact TED may decide");
    }

    #[test]
    fn size_rejects_before_any_work() {
        let d = data(&["{a{b}{c}{d}{e}}", "{a}"]);
        let mut engine = VerifyEngine::with_filters(2, &VerifyConfig::default());
        assert_eq!(engine.check(&d[0], &d[1]), None);
        assert_eq!(engine.ted_calls(), 0);
        assert_eq!(engine.prefilter_skips(), 1);
    }

    #[test]
    fn histogram_rejects_disjoint_labels() {
        // Same size and shape-compatible, but entirely different labels:
        // L1 = 6 ⇒ bound 3 > τ = 2 (traversal never runs — its stage
        // count stays 0).
        let d = data(&["{a{b}{c}}", "{x{y}{z}}"]);
        let mut engine = VerifyEngine::with_filters(2, &VerifyConfig::default());
        assert_eq!(engine.check(&d[0], &d[1]), None);
        assert_eq!(engine.ted_calls(), 0);
        let mut stats = JoinStats::default();
        engine.fold_into(&mut stats);
        let hist = stats
            .stage_counts
            .iter()
            .find(|c| c.stage == "label-hist")
            .unwrap();
        assert_eq!(hist.count, 1);
    }

    #[test]
    fn disabled_chain_is_pure_ted() {
        let d = data(&["{a{b}{c}}", "{a{b}{c}}", "{q{r}{s}}"]);
        let mut engine = VerifyEngine::with_filters(1, &VerifyConfig::NONE);
        assert_eq!(engine.check(&d[0], &d[1]), Some(0));
        assert_eq!(engine.check(&d[0], &d[2]), None);
        assert_eq!(engine.ted_calls(), 2, "every pair pays exact TED");
        let mut stats = JoinStats::default();
        engine.fold_into(&mut stats);
        assert!(stats.stage_counts.is_empty());
        assert_eq!(stats.ted_calls, 2);
    }

    #[test]
    fn fold_into_merges_worker_engines() {
        let d = data(&["{a{b}{c}}", "{a{b}{c}}", "{a{b}{z}}", "{m{n{o{p{q}}}}}"]);
        let mut stats = JoinStats::default();
        let mut w1 = VerifyEngine::with_filters(1, &VerifyConfig::default());
        let mut w2 = VerifyEngine::with_filters(1, &VerifyConfig::default());
        w1.check(&d[0], &d[1]); // shape-accept
        w2.check(&d[0], &d[3]); // size reject
        w2.check(&d[1], &d[2]); // shape-accept (rename)
        w1.fold_into(&mut stats);
        w2.fold_into(&mut stats);
        assert_eq!(stats.early_accepts, 2);
        assert_eq!(stats.prefilter_skips, 1);
        assert_eq!(stats.stage_counts.len(), 4);
        assert_eq!(stats.stage_counts[0].count, 1, "size");
        assert_eq!(stats.stage_counts[1].count, 2, "shape-accept");
    }

    #[test]
    fn fold_into_merges_heterogeneous_chains_by_name() {
        // Regression for the positional zip: worker chains that differ
        // in enabled subset must merge by stage name, not by chain
        // position.
        let d = data(&["{a{b}{c}}", "{x{y}{z}}", "{m{n{o{p{q}}}}}"]);
        let mut stats = JoinStats::default();
        // Worker 1: full default chain. Histogram rejects the
        // disjoint-label pair.
        let mut w1 = VerifyEngine::with_filters(1, &VerifyConfig::default());
        assert_eq!(w1.check(&d[0], &d[1]), None);
        // Worker 2: traversal-only chain — its single counter sits at
        // position 0, where w1 keeps "size".
        let trav_only = VerifyConfig {
            size: false,
            shape_accept: false,
            histogram: false,
            traversal: true,
        };
        let mut w2 = VerifyEngine::with_filters(1, &trav_only);
        assert_eq!(w2.check(&d[0], &d[1]), None, "SED rejects at τ=1");
        w1.fold_into(&mut stats);
        w2.fold_into(&mut stats);
        assert_eq!(stats.prefilter_skips, 2);
        let by_name = |name: &str| {
            stats
                .stage_counts
                .iter()
                .find(|c| c.stage == name)
                .map(|c| c.count)
        };
        assert_eq!(by_name("size"), Some(0), "w2's kill must not land here");
        assert_eq!(by_name("label-hist"), Some(1));
        assert_eq!(by_name("traversal-sed"), Some(1));
        let total: u64 = stats.stage_counts.iter().map(|c| c.count).sum();
        assert_eq!(total, stats.prefilter_skips + stats.early_accepts);
    }

    #[test]
    fn set_tau_retunes_a_live_engine() {
        let d = data(&["{a{b}{c}}", "{x{y}{z}}"]);
        let mut engine = VerifyEngine::with_filters(5, &VerifyConfig::default());
        assert!(engine.check_exact(&d[0], &d[1]).is_some());
        engine.set_tau(1);
        assert_eq!(engine.tau(), 1);
        assert_eq!(engine.check_exact(&d[0], &d[1]), None, "tightened τ");
    }

    /// The chain as it was before the τ-bounded kernel: the same four
    /// bounds, then the full DP and a comparison. `VerifyEngine` must
    /// agree with it on every verdict and every counter.
    struct Reference {
        tau: u32,
        filters: VerifyConfig,
        counts: [u64; STAGES],
        sed: SedScratch,
        ted: TedEngine,
    }

    impl Reference {
        fn new(tau: u32, filters: VerifyConfig) -> Reference {
            Reference {
                tau,
                filters,
                counts: [0; STAGES],
                sed: SedScratch::default(),
                ted: TedEngine::unit(),
            }
        }

        fn decide(&mut self, a: &VerifyData, b: &VerifyData, exact: bool) -> Option<u32> {
            let (tau, on) = (self.tau, self.filters);
            if on.size && size_rejects(a, b, tau) {
                return self.reject(SIZE);
            }
            if on.shape_accept {
                let certificate = shape_certificate(a, b, tau);
                if let Some(hamming) = certificate.filter(|&hamming| hamming <= 1 || !exact) {
                    self.counts[SHAPE_ACCEPT] += 1;
                    return Some(hamming);
                }
            }
            if on.histogram && histogram_rejects(a, b, tau) {
                return self.reject(LABEL_HIST);
            }
            if on.traversal && traversal_rejects(a, b, tau, &mut self.sed) {
                return self.reject(TRAVERSAL_SED);
            }
            let d = self.ted.distance(&a.prepared, &b.prepared);
            (d <= tau).then_some(d)
        }

        fn reject(&mut self, stage: usize) -> Option<u32> {
            self.counts[stage] += 1;
            None
        }

        /// The engine under test must have decided the same pairs at the
        /// same stages and handed the same number to exact TED.
        fn assert_counters_match(&self, engine: &VerifyEngine, context: &str) {
            assert_eq!(engine.ted_calls(), self.ted.computations(), "{context}");
            let mut stats = JoinStats::default();
            engine.fold_into(&mut stats);
            let want: Vec<StageCount> = engine
                .stages()
                .map(|(idx, stage)| StageCount {
                    stage,
                    count: self.counts[idx],
                })
                .collect();
            assert_eq!(stats.stage_counts, want, "{context}");
        }
    }

    /// Near-duplicates at every distance up to 5 edits, unrelated trees of
    /// equal and of very different sizes, and a single node.
    fn mixed_collection() -> Vec<VerifyData> {
        use rand::{rngs::StdRng, SeedableRng};
        use tsj_datagen::{grow_tree, random_edit_script, ShapeProfile};
        let mut rng = StdRng::seed_from_u64(21);
        let profile = ShapeProfile {
            max_fanout: 3,
            max_depth: 6,
            deepen_prob: 0.3,
        };
        let mut trees = vec![Tree::leaf(Label::from_raw(1))];
        for (size, labels) in [(10, 3), (10, 3), (18, 4), (19, 2)] {
            let base = grow_tree(&mut rng, size, labels, &profile);
            for edits in 0..=5 {
                trees.push(random_edit_script(&base, edits, &mut rng, labels).0);
            }
        }
        VerifyData::batch(&trees)
    }

    #[test]
    fn bounded_ted_moves_no_verdict_and_no_counter() {
        let data = mixed_collection();
        for mask in 0..16u32 {
            let filters = config_of(mask);
            for tau in [0, 1, 3, 6, 40] {
                let mut engine = VerifyEngine::with_filters(tau, &filters);
                let mut reference = Reference::new(tau, filters);
                for (i, a) in data.iter().enumerate() {
                    for (j, b) in data.iter().enumerate() {
                        let exact = (i + j) % 2 == 0;
                        let got = engine.decide(a, b, exact);
                        let want = reference.decide(a, b, exact);
                        assert_eq!(got, want, "mask {mask:04b} tau {tau} pair ({i}, {j})");
                    }
                }
                reference.assert_counters_match(&engine, &format!("mask {mask:04b} tau {tau}"));
            }
        }
        // Without the size stage, a size-mismatched pair still counts as
        // one exact computation, though the kernel answers it in O(1).
        let mut engine = VerifyEngine::with_filters(2, &VerifyConfig::NONE);
        assert_eq!(engine.check(&data[0], &data[20]), None);
        assert_eq!(engine.ted_calls(), 1);
    }

    #[test]
    fn shrinking_tau_mid_run_matches_the_reference() {
        // The top-k join starts wide and tightens τ as its heap fills; the
        // bounded kernel must follow each new τ on a warm engine.
        let data = mixed_collection();
        let mut engine = VerifyEngine::with_filters(4096, &VerifyConfig::default());
        let mut reference = Reference::new(4096, VerifyConfig::default());
        for tau in [4096, 64, 9, 4, 2, 1, 0, 3] {
            engine.set_tau(tau);
            reference.tau = tau;
            for (i, a) in data.iter().enumerate() {
                for b in &data[..i] {
                    assert_eq!(
                        engine.check_exact(a, b),
                        reference.decide(a, b, true),
                        "tau {tau}"
                    );
                }
            }
            reference.assert_counters_match(&engine, &format!("after tau {tau}"));
        }
    }

    #[test]
    fn for_config_skips_disabled_stage_inputs() {
        let mut labels = LabelInterner::new();
        let tree = parse_bracket("{a{b}{c}}", &mut labels).unwrap();
        let bare = VerifyData::for_config(&tree, &VerifyConfig::NONE);
        assert!(bare.histogram.is_empty());
        assert!(bare.shape.is_empty());
        assert!(bare.traversals.preorder.is_empty());
        // Stage-less inputs under a full chain: every stage must abstain
        // (not mis-decide on the empty vectors) and exact TED decides.
        let other = VerifyData::for_config(
            &parse_bracket("{a{b}{z}}", &mut labels).unwrap(),
            &VerifyConfig::NONE,
        );
        let mut engine = VerifyEngine::with_filters(1, &VerifyConfig::default());
        assert_eq!(engine.check(&bare, &other), Some(1));
        assert_eq!(engine.ted_calls(), 1);
        assert_eq!(engine.early_accepts(), 0);
        assert_eq!(engine.prefilter_skips(), 0);
    }

    #[test]
    fn shape_hash_distinguishes_shapes_sharing_labels() {
        let d = data(&["{a{b}{c}}", "{a{b{c}}}"]);
        assert_ne!(d[0].shape_hash, d[1].shape_hash);
        assert_ne!(d[0].shape, d[1].shape);
        // Same labels, different shape: stage must not accept.
        let mut engine = VerifyEngine::with_filters(2, &VerifyConfig::default());
        assert_eq!(engine.check(&d[0], &d[1]), Some(2));
        assert_eq!(engine.ted_calls(), 1);
    }
}
