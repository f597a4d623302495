//! The unified verification engine: a pluggable chain of cheap bounds in
//! front of exact TED.
//!
//! Every join entry point — sequential, R×S and top-k in this crate,
//! plus the pooled, streaming and point-query paths of `tsj-shard` and
//! `tsj-catalog` — verifies candidate pairs the same way: run cheap distance *bounds* first and fall back to
//! the cubic exact-TED DP only when no bound decides the pair. Before
//! this module each entry point re-implemented that pipeline inline;
//! [`VerifyEngine`] owns it once, so a new bound added here speeds up
//! every entry point at the same time.
//!
//! ## The filter chain
//!
//! A [`VerifyEngine`] holds an ordered chain of [`FilterStage`]s, built
//! from [`VerifyConfig`] and evaluated **cheapest first**:
//!
//! | # | stage | kind | per-pair cost | decides |
//! |---|----------------|-------|----------------------|---------|
//! | 1 | `size` | lower | O(1) | reject |
//! | 2 | `shape-accept` | upper | O(1), O(n) on hit | accept |
//! | 3 | `label-hist` | lower | O(n) merge | reject |
//! | 4 | `traversal-sed`| lower | O(τ·n) banded DP | reject |
//! | — | exact TED | — | O(n²·min-height²) DP | both |
//!
//! A **lower-bound** stage computes `lb ≤ TED` and rejects when
//! `lb > τ`; rejection can never drop a true result. An **upper-bound**
//! stage exhibits a concrete edit script of cost `ub ≥ TED` and accepts
//! when `ub ≤ τ`; acceptance can never add a false result. Either way
//! the pair is *resolved* without the expensive DP, and the stage's
//! counter records it ([`JoinStats::stage_counts`]).
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

use crate::config::{AdaptiveConfig, PartSjConfig, VerifyConfig};
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

/// Whether a stage bounds TED from below (can only reject) or from above
/// (can only accept).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Computes `lb ≤ TED`; rejects when `lb > τ`.
    LowerBound,
    /// Exhibits an edit script of cost `ub ≥ TED`; accepts when `ub ≤ τ`.
    UpperBound,
}

/// One stage's decision for one candidate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageVerdict {
    /// A lower bound exceeded `τ`: the pair is not a result.
    Reject,
    /// An upper bound certified the pair with the **exact** distance `d`
    /// (the stage proved no cheaper script exists).
    AcceptExact(u32),
    /// An upper bound certified the pair: `TED ≤ d ≤ τ`, but `d` may
    /// overestimate the true distance. Sufficient for joins (membership),
    /// not for [`VerifyEngine::check_exact`] consumers.
    AcceptWithin(u32),
    /// No decision; evaluate the next stage (or exact TED).
    Continue,
}

/// The engine-owned scratch arena stages compute out of: per-pair
/// working memory that must not be allocated per candidate. Each
/// [`VerifyEngine`] owns exactly one (engines are per-worker, so no
/// locking is ever needed) and passes it to every
/// [`FilterStage::apply`] call.
#[derive(Debug, Default)]
pub struct VerifyScratch {
    /// Row/band buffers for the SED-based stages.
    pub sed: SedScratch,
}

impl VerifyScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> VerifyScratch {
        VerifyScratch::default()
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

/// A pluggable verification filter. Implementations must be `Send + Sync`
/// so parallel verify pools can build one chain per worker; all per-pair
/// state lives in the [`VerifyData`] arguments and the engine-owned
/// [`VerifyScratch`].
///
/// To add a new bound: implement this trait (see the module docs for the
/// soundness contract per [`StageKind`]), give it a distinct [`name`],
/// and splice it into [`VerifyEngine::with_filters`] at its cost rank —
/// every entry point picks it up through `PartSjConfig`.
///
/// [`name`]: FilterStage::name
pub trait FilterStage: Send + Sync {
    /// Stable stage name, used for [`StageCount`] reporting and for
    /// merging per-worker counters ([`VerifyEngine::fold_into`] keys on
    /// it, so it must be unique within a chain).
    fn name(&self) -> &'static str;

    /// Lower or upper bound (documents which verdicts are legal).
    fn kind(&self) -> StageKind;

    /// Relative per-pair cost weight, used by the adaptive chain
    /// reordering to rank stages by kills-per-cost. Purely advisory —
    /// correctness never depends on it. Defaults to `1`.
    fn cost(&self) -> u32 {
        1
    }

    /// Evaluates the stage on one candidate pair at threshold `tau`,
    /// computing out of the engine-owned `scratch` so steady-state
    /// verification performs no heap allocation.
    fn apply(
        &self,
        a: &VerifyData,
        b: &VerifyData,
        tau: u32,
        scratch: &mut VerifyScratch,
    ) -> StageVerdict;
}

/// Size lower bound `||T1| − |T2|| ≤ TED` (§3.2 footnote 1).
struct SizeFilter;

impl FilterStage for SizeFilter {
    fn name(&self) -> &'static str {
        "size"
    }

    fn kind(&self) -> StageKind {
        StageKind::LowerBound
    }

    fn cost(&self) -> u32 {
        1 // two cached lengths
    }

    #[inline]
    fn apply(
        &self,
        a: &VerifyData,
        b: &VerifyData,
        tau: u32,
        _: &mut VerifyScratch,
    ) -> StageVerdict {
        if a.len().abs_diff(b.len()) as u32 > tau {
            StageVerdict::Reject
        } else {
            StageVerdict::Continue
        }
    }
}

/// Rename-script early accept: same shape ⇒ TED ≤ label Hamming
/// distance. See the module docs for why this replaces the (unsound)
/// SED-based accept.
struct ShapeAcceptFilter;

impl FilterStage for ShapeAcceptFilter {
    fn name(&self) -> &'static str {
        "shape-accept"
    }

    fn kind(&self) -> StageKind {
        StageKind::UpperBound
    }

    fn cost(&self) -> u32 {
        2 // O(1) hash compare, O(n) only on the rare hash hit
    }

    #[inline]
    fn apply(
        &self,
        a: &VerifyData,
        b: &VerifyData,
        tau: u32,
        _: &mut VerifyScratch,
    ) -> StageVerdict {
        // An empty shape means the input was built without this stage
        // (trees are never empty): no decision. The preorder-length
        // check rejects mixed-construction inputs the same way.
        if a.shape.is_empty()
            || a.shape_hash != b.shape_hash
            || a.shape != b.shape
            || a.traversals.preorder.len() != a.shape.len()
            || b.traversals.preorder.len() != b.shape.len()
        {
            return StageVerdict::Continue;
        }
        // Equal preorder degree sequences ⇒ identical shapes; mapping
        // nodes by preorder position and renaming every label mismatch is
        // a valid edit script of cost `hamming`.
        let mut hamming = 0u32;
        for (&la, &lb) in a.traversals.preorder.iter().zip(&b.traversals.preorder) {
            hamming += u32::from(la != lb);
            if hamming > tau {
                return StageVerdict::Continue;
            }
        }
        // hamming = 0 ⇒ identical trees ⇒ TED = 0. hamming = 1 with
        // equal sizes ⇒ the trees differ, so TED ≥ 1 — the bound is
        // tight. From 2 on, mixed insert/delete scripts can be cheaper
        // than renames, so the certificate is only an upper bound.
        if hamming <= 1 {
            StageVerdict::AcceptExact(hamming)
        } else {
            StageVerdict::AcceptWithin(hamming)
        }
    }
}

/// Label-histogram L1 lower bound `⌈L1/2⌉ ≤ TED` (Kailing et al.).
struct HistogramFilter;

impl FilterStage for HistogramFilter {
    fn name(&self) -> &'static str {
        "label-hist"
    }

    fn kind(&self) -> StageKind {
        StageKind::LowerBound
    }

    fn cost(&self) -> u32 {
        8 // O(n) sorted-multiset merge
    }

    #[inline]
    fn apply(
        &self,
        a: &VerifyData,
        b: &VerifyData,
        tau: u32,
        _: &mut VerifyScratch,
    ) -> StageVerdict {
        // Empty histogram = input built without this stage: no decision
        // (a one-sided empty histogram would inflate the L1 bound).
        if a.histogram.is_empty() || b.histogram.is_empty() {
            return StageVerdict::Continue;
        }
        if histogram_bound(&a.histogram, &b.histogram) > tau {
            StageVerdict::Reject
        } else {
            StageVerdict::Continue
        }
    }
}

/// Banded traversal-string SED lower bound
/// `max(SED(pre), SED(post)) ≤ TED` (Guha et al.).
struct TraversalFilter;

impl FilterStage for TraversalFilter {
    fn name(&self) -> &'static str {
        "traversal-sed"
    }

    fn kind(&self) -> StageKind {
        StageKind::LowerBound
    }

    fn cost(&self) -> u32 {
        32 // O(τ·n) banded DP, twice (preorder + postorder)
    }

    #[inline]
    fn apply(
        &self,
        a: &VerifyData,
        b: &VerifyData,
        tau: u32,
        scratch: &mut VerifyScratch,
    ) -> StageVerdict {
        // Empty strings = input built without this stage: no decision
        // (a one-sided empty string would inflate the SED bound).
        if a.traversals.preorder.is_empty() || b.traversals.preorder.is_empty() {
            return StageVerdict::Continue;
        }
        if traversal_within_with(&a.traversals, &b.traversals, tau, &mut scratch.sed) {
            StageVerdict::Continue
        } else {
            StageVerdict::Reject
        }
    }
}

/// The verification engine: one filter chain, one exact-TED engine, and
/// the per-stage counters — everything one verifier thread needs.
///
/// Entry points create one engine per verifying thread (the sequential
/// joins own one; `tsj-shard`'s verify pool builds one per worker)
/// and fold the counters into the run's [`JoinStats`] at the end with
/// [`VerifyEngine::fold_into`].
///
/// ## Adaptive reordering
///
/// When [`AdaptiveConfig::reorder_chain`] is set (via
/// [`VerifyEngine::new`]), the engine re-ranks its **lower-bound**
/// stages every `reorder_every` checks by observed kills-per-cost:
/// `(rejections / evaluations) / cost`. Upper-bound stages keep their
/// chain slots — an accept and a reject can never both fire on the same
/// pair (both bounds are sound, so they would contradict each other),
/// which is exactly why permuting the lower bounds among themselves
/// changes neither the decision for any pair nor the number of pairs
/// that fall through to exact TED. Only *which* stage gets credited
/// with a kill (and the filter work spent) depends on the order.
#[derive(Debug)]
pub struct VerifyEngine {
    tau: u32,
    /// Stages in canonical (cheapest-first construction) order; counters
    /// stay aligned with this vector no matter how evaluation is
    /// reordered.
    stages: Vec<Box<dyn FilterStage>>,
    /// Evaluation order: a permutation of `0..stages.len()`.
    order: Vec<usize>,
    /// Pairs resolved per stage, aligned with `stages`.
    counts: Vec<u64>,
    /// Pairs each stage was evaluated on, aligned with `stages` (the
    /// kill-rate denominator).
    seen: Vec<u64>,
    /// Checks between adaptive reorders; `0` = static chain.
    reorder_every: u32,
    /// Checks since the last reorder.
    since_reorder: u32,
    /// Total lower-bound rejections (sum over lower stages).
    lower_skips: u64,
    /// Total upper-bound admissions (sum over upper stages).
    early_accepts: u64,
    /// Whether to stopwatch each stage evaluation. Sampled from
    /// [`tsj_obs::stage_timings_enabled`] at construction (off by
    /// default: the `Instant` stamps would dominate the O(1) stages).
    time_stages: bool,
    /// Accumulated per-stage wall time in nanoseconds, aligned with
    /// `stages`; only written when `time_stages` is set.
    stage_ns: Vec<u64>,
    /// One-shot guard so [`VerifyEngine::fold_into`] publishes the stage
    /// timings to the global registry exactly once per engine.
    timings_flushed: Cell<bool>,
    /// The engine-owned scratch arena stages compute out of; per-worker
    /// engines therefore need no locking and no per-pair allocation.
    scratch: VerifyScratch,
    ted: TedEngine,
}

impl std::fmt::Debug for dyn FilterStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FilterStage")
            .field("name", &self.name())
            .field("kind", &self.kind())
            .finish()
    }
}

impl VerifyEngine {
    /// Engine for threshold `tau` with the chain configured in
    /// `config.verify`, honoring `config.adaptive` (chain reordering).
    pub fn new(tau: u32, config: &PartSjConfig) -> VerifyEngine {
        let mut engine = VerifyEngine::with_filters(tau, &config.verify);
        if config.adaptive.reorder_chain {
            engine.reorder_every = match config.adaptive.reorder_every {
                0 => AdaptiveConfig::FULL.reorder_every,
                n => n,
            };
        }
        engine
    }

    /// Engine for threshold `tau` with an explicit stage selection and a
    /// **static** chain. The chain is assembled cheapest-first regardless
    /// of the order the flags are written.
    pub fn with_filters(tau: u32, filters: &VerifyConfig) -> VerifyEngine {
        let mut stages: Vec<Box<dyn FilterStage>> = Vec::new();
        if filters.size {
            stages.push(Box::new(SizeFilter));
        }
        if filters.shape_accept {
            stages.push(Box::new(ShapeAcceptFilter));
        }
        if filters.histogram {
            stages.push(Box::new(HistogramFilter));
        }
        if filters.traversal {
            stages.push(Box::new(TraversalFilter));
        }
        let counts = vec![0; stages.len()];
        let seen = vec![0; stages.len()];
        let stage_ns = vec![0; stages.len()];
        let order = (0..stages.len()).collect();
        let time_stages = tsj_obs::stage_timings_enabled() && tsj_obs::global().is_enabled();
        VerifyEngine {
            tau,
            stages,
            order,
            counts,
            seen,
            reorder_every: 0,
            since_reorder: 0,
            lower_skips: 0,
            early_accepts: 0,
            time_stages,
            stage_ns,
            timings_flushed: Cell::new(false),
            scratch: VerifyScratch::new(),
            ted: TedEngine::unit(),
        }
    }

    /// The threshold the engine verifies against.
    pub fn tau(&self) -> u32 {
        self.tau
    }

    /// Tightens (or relaxes) the verification threshold in place. The
    /// top-k join mode shrinks τ to the current k-th best distance as
    /// its result heap fills; counters and any learned stage order carry
    /// over unchanged.
    pub fn set_tau(&mut self, tau: u32) {
        self.tau = tau;
    }

    /// Stage names in canonical (construction) order — stable under
    /// adaptive reordering; counters and [`fold_into`] report in this
    /// order.
    ///
    /// [`fold_into`]: VerifyEngine::fold_into
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Stage names in the **current evaluation order** — equals
    /// [`VerifyEngine::stage_names`] until an adaptive reorder promotes
    /// a more effective lower bound.
    pub fn evaluation_order(&self) -> Vec<&'static str> {
        self.order.iter().map(|&i| self.stages[i].name()).collect()
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
    /// totals) while keeping the learned evaluation order and all scratch
    /// capacity. Callers that reuse one engine across independent runs
    /// (e.g. repeated scratch joins) reset between runs so each run's
    /// [`VerifyEngine::fold_into`] reports only its own work.
    pub fn reset_counters(&mut self) {
        self.counts.fill(0);
        self.seen.fill(0);
        self.stage_ns.fill(0);
        self.since_reorder = 0;
        self.lower_skips = 0;
        self.early_accepts = 0;
        self.ted.reset_counters();
    }

    /// Membership check: `Some(d)` iff `TED(a, b) ≤ τ`, where `d ≤ τ` is
    /// a distance certificate — exact unless an [`AcceptWithin`] upper
    /// bound resolved the pair first. Joins and streaming monitors (which
    /// report pair *sets*) use this; use [`VerifyEngine::check_exact`]
    /// when the caller surfaces the distance value.
    ///
    /// [`AcceptWithin`]: StageVerdict::AcceptWithin
    pub fn check(&mut self, a: &VerifyData, b: &VerifyData) -> Option<u32> {
        let decision = self.decide(a, b, false);
        self.tick();
        decision
    }

    /// Like [`VerifyEngine::check`] but the returned distance is always
    /// **exact**: upper-bound stages only short-circuit when their
    /// certificate is provably tight ([`StageVerdict::AcceptExact`]);
    /// otherwise the pair falls through to the exact TED DP. Point
    /// queries and the top-k join use this to report `(tree, distance)`
    /// hits.
    pub fn check_exact(&mut self, a: &VerifyData, b: &VerifyData) -> Option<u32> {
        let decision = self.decide(a, b, true);
        self.tick();
        decision
    }

    /// The shared chain walk behind both check flavours. With `exact`,
    /// an [`StageVerdict::AcceptWithin`] certificate is not enough to
    /// short-circuit and the pair falls through to the exact DP.
    fn decide(&mut self, a: &VerifyData, b: &VerifyData, exact: bool) -> Option<u32> {
        for pos in 0..self.order.len() {
            let idx = self.order[pos];
            self.seen[idx] += 1;
            let started = self.time_stages.then(Instant::now);
            let verdict = self.stages[idx].apply(a, b, self.tau, &mut self.scratch);
            if let Some(t) = started {
                self.stage_ns[idx] += t.elapsed().as_nanos() as u64;
            }
            match verdict {
                StageVerdict::Reject => {
                    self.counts[idx] += 1;
                    self.lower_skips += 1;
                    return None;
                }
                StageVerdict::AcceptExact(d) => {
                    self.counts[idx] += 1;
                    self.early_accepts += 1;
                    return Some(d);
                }
                StageVerdict::AcceptWithin(d) if !exact => {
                    self.counts[idx] += 1;
                    self.early_accepts += 1;
                    return Some(d);
                }
                StageVerdict::AcceptWithin(_) | StageVerdict::Continue => {}
            }
        }
        let d = self.ted.distance(&a.prepared, &b.prepared);
        (d <= self.tau).then_some(d)
    }

    /// Counts one completed check toward the adaptive reorder period.
    #[inline]
    fn tick(&mut self) {
        if self.reorder_every == 0 {
            return;
        }
        self.since_reorder += 1;
        if self.since_reorder >= self.reorder_every {
            self.since_reorder = 0;
            self.reorder_stages();
        }
    }

    /// Re-ranks the lower-bound stages among the chain slots they
    /// currently occupy, best observed kills-per-cost first (ties break
    /// toward canonical order, keeping the permutation deterministic).
    /// Upper-bound stages keep their slots.
    fn reorder_stages(&mut self) {
        let mut slots: Vec<usize> = Vec::with_capacity(self.order.len());
        let mut movers: Vec<usize> = Vec::with_capacity(self.order.len());
        for (pos, &idx) in self.order.iter().enumerate() {
            if self.stages[idx].kind() == StageKind::LowerBound {
                slots.push(pos);
                movers.push(idx);
            }
        }
        movers.sort_by(|&x, &y| {
            self.kill_rate(y)
                .partial_cmp(&self.kill_rate(x))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(x.cmp(&y))
        });
        for (slot, idx) in slots.into_iter().zip(movers) {
            self.order[slot] = idx;
        }
    }

    /// Observed kills-per-cost of a stage: `(rejections / evaluations) /
    /// cost`, `0` before the stage has seen any pair.
    fn kill_rate(&self, idx: usize) -> f64 {
        if self.seen[idx] == 0 {
            return 0.0;
        }
        let rate = self.counts[idx] as f64 / self.seen[idx] as f64;
        rate / f64::from(self.stages[idx].cost().max(1))
    }

    /// Folds this engine's counters into `stats`: TED calls, total
    /// lower-bound skips, upper-bound accepts, and the per-stage
    /// breakdown. Stage counters merge **by stage name**, so engines
    /// with differently ordered — or differently enabled — chains fold
    /// into one coherent breakdown (adaptive workers may each have
    /// learned a different order). First-folded engines establish the
    /// display order of stages not yet present.
    pub fn fold_into(&self, stats: &mut JoinStats) {
        stats.ted_calls += self.ted.computations();
        stats.prefilter_skips += self.lower_skips;
        stats.early_accepts += self.early_accepts;
        if stats.stage_counts.is_empty() {
            // One exact allocation instead of push-doubling growth — the
            // stage-count rows are the only allocation a recycled join
            // makes per call.
            stats.stage_counts.reserve_exact(self.stages.len());
        }
        for (idx, stage) in self.stages.iter().enumerate() {
            let name = stage.name();
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
            for (idx, stage) in self.stages.iter().enumerate() {
                obs.counter(&tsj_obs::labeled(
                    "tsj_core_verify_stage_ns_total",
                    "stage",
                    stage.name(),
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

    #[test]
    fn default_chain_order_is_cheapest_first() {
        let engine = VerifyEngine::with_filters(1, &VerifyConfig::default());
        assert_eq!(
            engine.stage_names(),
            vec!["size", "shape-accept", "label-hist", "traversal-sed"]
        );
        let empty = VerifyEngine::with_filters(1, &VerifyConfig::NONE);
        assert!(empty.stage_names().is_empty());
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
        // in enabled subset (or learned order) must merge by stage name,
        // not by chain position.
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
    fn adaptive_reorder_promotes_the_killing_stage() {
        use crate::config::{AdaptiveConfig, PartSjConfig};
        // Same size, same label multiset, same (chain) shape with
        // hamming > τ: only traversal-SED can reject these pairs.
        let d = data(&["{a{b{c{d{e}}}}}", "{e{d{c{b{a}}}}}"]);
        let config = PartSjConfig {
            adaptive: AdaptiveConfig {
                reorder_chain: true,
                reorder_every: 4,
                ..AdaptiveConfig::OFF
            },
            ..Default::default()
        };
        let mut engine = VerifyEngine::new(1, &config);
        assert_eq!(engine.evaluation_order()[0], "size");
        for _ in 0..4 {
            assert_eq!(engine.check(&d[0], &d[1]), None);
        }
        // After the reorder window, the only stage with observed kills
        // leads the evaluation order; canonical reporting order is
        // untouched.
        assert_eq!(engine.evaluation_order()[0], "traversal-sed");
        assert_eq!(engine.stage_names()[0], "size");
        // Upper-bound stages keep their slot.
        assert_eq!(engine.evaluation_order()[1], "shape-accept");
    }

    #[test]
    fn adaptive_engine_matches_static_decisions() {
        use crate::config::{AdaptiveConfig, PartSjConfig};
        let d = data(&[
            "{a{b{c{d{e}}}}}",
            "{e{d{c{b{a}}}}}",
            "{a{b}{c}}",
            "{a{b}{z}}",
            "{x{y}{z}}",
            "{m{n{o{p{q}}}}}",
        ]);
        let adaptive_cfg = PartSjConfig {
            adaptive: AdaptiveConfig {
                reorder_chain: true,
                reorder_every: 2,
                ..AdaptiveConfig::OFF
            },
            ..Default::default()
        };
        let mut fixed = VerifyEngine::new(1, &PartSjConfig::default());
        let mut adaptive = VerifyEngine::new(1, &adaptive_cfg);
        for i in 0..d.len() {
            for j in (i + 1)..d.len() {
                assert_eq!(
                    fixed.check(&d[i], &d[j]),
                    adaptive.check(&d[i], &d[j]),
                    "membership must not depend on stage order ({i}, {j})"
                );
            }
        }
        // Sound bounds never contradict, so the totals — not just the
        // pair decisions — are order-independent; only the per-stage
        // attribution may differ.
        assert_eq!(fixed.ted_calls(), adaptive.ted_calls());
        assert_eq!(fixed.prefilter_skips(), adaptive.prefilter_skips());
        assert_eq!(fixed.early_accepts(), adaptive.early_accepts());
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
