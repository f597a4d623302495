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
//! The chain is the **closed** set [`VERIFY_STAGES`]; [`VerifyConfig`]
//! only switches individual stages off:
//!
//! | stage | kind | per-pair cost | decides | input | built when |
//! |----------------|-------|----------------------|---------|-------|------------|
//! | `size` | lower | O(1) | reject | node count | preparation |
//! | `shape-accept` | upper | Hamming: O(1), O(n) on hit; mapping: O(n·τ) band cells | accept | `lld` array, its hash, postorder labels | preparation |
//! | `label-hist` | lower | O(n) merge | reject | sorted label multiset | first `label-hist` on the tree |
//! | `traversal-sed`| lower | two O(τ·n) banded DPs | reject | postorder labels; mirrored decomposition's labels | preparation; first pair whose postorder SED is ≤ τ |
//! | exact TED | — | O(n·τ) cells per surviving keyroot pair | both | left decomposition; mirrored decomposition | preparation; first right-side pair |
//!
//! A **lower-bound** stage computes `lb ≤ TED` and rejects when
//! `lb > τ`; rejection can never drop a true result. An **upper-bound**
//! stage exhibits a concrete edit script of cost `ub ≥ TED` and accepts
//! when `ub ≤ τ`; acceptance can never add a false result. Either way
//! the pair is *resolved* without the expensive DP, and the stage's
//! counter records it ([`JoinStats::stage_counts`]).
//!
//! `shape-accept` has two halves, and the engine runs them apart. The
//! order is the private table `CHAIN`, stated once:
//!
//! 1. `size`;
//! 2. `shape-accept`'s **Hamming** half: equal shapes ⇒ the rename
//!    script (O(1) on a shape-hash miss);
//! 3. `label-hist`;
//! 4. `shape-accept`'s **mapping** half: the cost of a τ-banded
//!    constrained mapping with run moves ([`mapping_bound_within`], unit
//!    costs), on the left decompositions preparation built;
//! 5. `traversal-sed`: the postorder SED, then the preorder SED, which
//!    reads the mirrored decomposition and builds it on first use;
//! 6. exact TED.
//!
//! The order is by cost per decision. The mapping half accepts most
//! near-duplicate pairs that `label-hist` lets through, and it reads only
//! what preparation built, so it runs before `traversal-sed`: a pair it
//! accepts pays for no SED and builds no mirrored decomposition.
//! Moving an upper stage past a lower one moves no verdict and no
//! counter: an upper bound accepts only pairs with TED ≤ τ, a lower bound
//! rejects only pairs with TED > τ, and the two sets are disjoint. The
//! lower stages keep their order among themselves, and so do the two
//! halves of `shape-accept`, so every counter names the same stage in any
//! such order; the tests run all ten and compare.
//! [`VerifyEngine::check_exact`] takes a certificate from either half
//! only when it is provably TED, `ub ≤ max(1, ||a| − |b||)`.
//!
//! The exact fallback is [`TedEngine::verify`], the τ-bounded
//! Zhang–Shasha kernel: it only has to answer "≤ τ, and the value if so",
//! so it fills the `|x − y| ≤ τ` band of each forest table and skips
//! keyroot pairs whose leftmost leaves are more than 2τ apart. It counts
//! one computation per pair, exactly as the full DP did. The unbounded DP
//! ([`TedEngine::distance`]) stays what `tsj-baselines` and every test
//! oracle run — the independent verifier.
//!
//! ## Two column passes per tree, everything else derived
//!
//! Preparing a [`VerifyData`] reads the tree's preorder columns: one
//! forward pass for depths, one backward pass for subtree sizes, and one
//! scatter of the left postorder arrays Zhang–Shasha needs anyway (labels
//! and leftmost-leaf descendants `lld` at `v − depth(v) + size(v)`,
//! keyroots, both decomposition costs; see [`tsj_ted::TedTree`]). No walk
//! and no stack. A join verifies only the pairs its index
//! surfaces, and most of those resolve before `traversal-sed`, so every
//! other input is derived from those arrays — never from the tree — the
//! first time a stage asks, and memoized per tree in a `OnceLock` (verify
//! workers share the data). Four identities make that possible:
//!
//! * the **postorder string** *is* the left decomposition's label array;
//! * the **preorder string** is the mirrored decomposition's label array
//!   reversed (mirrored postorder is preorder backwards), and SED is
//!   reversal-invariant, so `traversal-sed` reads it unreversed;
//! * the **shape** *is* the `lld` array: it determines the tree as the
//!   preorder degree sequence does, and the rename script's Hamming
//!   distance is the same over postorder as over preorder labels (one
//!   node bijection);
//! * the **right decomposition's cost** is `Σ size` over the root and
//!   every node that is not its parent's last child, priced in the same
//!   pass ([`tsj_ted::TedTree::mirror_cost`]), so the dynamic strategy chooses
//!   as it always did and the mirrored decomposition itself
//!   ([`tsj_ted::TedTree::mirror_of`], from `labels` and `lld` alone) is
//!   built only for trees a right-side pair or `traversal-sed`'s
//!   preorder half reaches.
//!
//! A recycled probe slot ([`VerifyData::rebuild`]) keeps the memo sticky
//! so the steady state stays allocation-free.
//!
//! ## Why the early accept hashes shapes and maps, instead of reusing SED
//!
//! A tempting upper bound is the exact traversal-string SED itself —
//! "if `SED ≤ τ`, accept". It is **unsound**: SED of preorder/postorder
//! strings *lower*-bounds TED (that is exactly why `traversal-sed` may
//! reject with it). The paper's own Figure 3 pair (`{1{2}{1{3}}}` vs
//! `{1{2{1}{3}}}`) has `max(SED) = 2` but `TED = 3`, so SED-accepting at
//! `τ = 2` would report a false pair — the regression test
//! `sed_accept_would_be_unsound` pins this counterexample. The sound
//! replacement is a cost that belongs to a concrete mapping. When two
//! trees have the *same shape* (equal `lld` arrays — which uniquely
//! determine an ordered tree), renaming every label mismatch in place is
//! one, so the label Hamming distance upper-bounds TED; near-duplicate
//! corpora are full of rename-only pairs, and an O(1) hash compare finds
//! them. Every other pair takes the constrained mapping Guha et al. pair
//! with the traversal-string lower bound: each of its table cells is the
//! cost of a mapping that keeps ancestry and sibling order, so it
//! upper-bounds TED too, and with its two run moves it prices every
//! single insertion, deletion and rename exactly.

use crate::config::{PartSjConfig, VerifyConfig};
use std::hash::Hasher as _;
use std::sync::OnceLock;
use std::time::Instant;
use tsj_ted::{
    histogram_bound, mapping_bound_within, sed_within_with, JoinStats, MappingWorkspace,
    PreparedTree, SedScratch, StageCount, TedBuildScratch, TedEngine,
};
use tsj_tree::{FxHasher, Label, Tree};

/// Per-tree verification inputs: the left postorder arrays and the shape
/// hash built ahead of time (two passes over the tree's columns), every other stage
/// input derived from those arrays the first time a pair asks for it and
/// kept (see the [module docs](self) for which stage reads what).
///
/// The memo cells are `OnceLock`s: `tsj-shard`'s verify pool shares one
/// `&[VerifyData]` across its workers.
#[derive(Debug, Clone)]
pub struct VerifyData {
    /// The left decomposition, and the mirrored one once a pair has run
    /// right-side or reached `traversal-sed`.
    prepared: PreparedTree,
    /// Fx-style hash of the `lld` array: O(1) shape inequality.
    shape_hash: u64,
    /// Sorted label multiset, filled by the first `label-hist`.
    histogram: OnceLock<Vec<Label>>,
}

/// Reusable temporaries for [`VerifyData`] preparation — the column
/// passes'.
/// One instance batched across a whole collection ([`VerifyData::batch`])
/// or carried in a probe scratch ([`VerifyData::rebuild`]) makes repeated
/// preparation allocation-free in steady state.
pub type VerifyPrep = TedBuildScratch;

/// Which lazily derived inputs a [`VerifyData`] holds so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Materialized {
    /// The sorted label multiset (`label-hist` reached this tree).
    pub histogram: bool,
    /// The mirrored decomposition (`traversal-sed`'s preorder half or a
    /// right-side exact TED reached this tree).
    pub mirror: bool,
}

impl VerifyData {
    /// Prepares `tree` for any chain.
    pub fn new(tree: &Tree) -> VerifyData {
        VerifyData::build(tree, &mut VerifyPrep::new())
    }

    /// [`VerifyData::new`] through caller-provided preparation
    /// temporaries, for a loop that prepares one tree at a time.
    pub fn build(tree: &Tree, prep: &mut VerifyPrep) -> VerifyData {
        let prepared = PreparedTree::new_with(tree, prep);
        VerifyData {
            shape_hash: shape_hash(&prepared),
            prepared,
            histogram: OnceLock::new(),
        }
    }

    /// [`VerifyData::new`]. `filters` is not read — a stage's input is
    /// derived when the stage first runs on this tree, so a disabled
    /// stage costs nothing without being named here; the form stays
    /// because the benchmark harness calls it.
    pub fn for_config(tree: &Tree, _filters: &VerifyConfig) -> VerifyData {
        VerifyData::new(tree)
    }

    /// [`VerifyData::build`] (`filters` is not read; kept for the
    /// benchmark harness, see [`VerifyData::for_config`]).
    pub fn for_config_with(
        tree: &Tree,
        _filters: &VerifyConfig,
        prep: &mut VerifyPrep,
    ) -> VerifyData {
        VerifyData::build(tree, prep)
    }

    /// Prepares a whole collection through one shared set of temporaries.
    pub fn batch(trees: &[Tree]) -> Vec<VerifyData> {
        let mut prep = VerifyPrep::new();
        trees
            .iter()
            .map(|tree| VerifyData::build(tree, &mut prep))
            .collect()
    }

    /// [`VerifyData::batch`] (`filters` is not read; kept for the
    /// benchmark harness, see [`VerifyData::for_config`]).
    pub fn batch_for_config(trees: &[Tree], _filters: &VerifyConfig) -> Vec<VerifyData> {
        VerifyData::batch(trees)
    }

    /// Rebuilds this instance in place for a new `tree`, reusing every
    /// buffer: allocation-free once buffers fit the largest tree seen —
    /// repeated probes reuse one instance through a scratch. The memo is
    /// *sticky*: an input this slot derived for an earlier tree is derived
    /// for the new one at once, into the same buffer (emptying the cell
    /// would make the next first use allocate); one it never needed stays
    /// unbuilt.
    pub fn rebuild(&mut self, tree: &Tree, prep: &mut VerifyPrep) {
        self.prepared.rebuild(tree, prep);
        self.shape_hash = shape_hash(&self.prepared);
        if let Some(histogram) = self.histogram.get_mut() {
            fill_histogram(histogram, &self.prepared);
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

    /// Heap bytes held: the prepared decompositions and, once derived,
    /// the label histogram.
    pub fn heap_bytes(&self) -> usize {
        let histogram = self.histogram.get().map_or(0, Vec::capacity);
        self.prepared.heap_bytes() + histogram * std::mem::size_of::<Label>()
    }

    /// What the chain has made this tree derive so far.
    pub fn materialized(&self) -> Materialized {
        Materialized {
            histogram: self.histogram.get().is_some(),
            mirror: self.prepared.right_built(),
        }
    }

    /// Labels in postorder: the left decomposition's label array.
    fn postorder(&self) -> &[Label] {
        self.prepared.left().labels()
    }

    /// The sorted label multiset, derived on first use.
    fn histogram(&self) -> &[Label] {
        self.histogram.get_or_init(|| {
            let mut histogram = Vec::new();
            fill_histogram(&mut histogram, &self.prepared);
            histogram
        })
    }
}

/// Hash of the tree's `lld` array, which determines its shape.
fn shape_hash(prepared: &PreparedTree) -> u64 {
    let mut hasher = FxHasher::default();
    for &lld in prepared.left().llds() {
        hasher.write_u32(lld);
    }
    hasher.finish()
}

/// (Re)fills `histogram` with the tree's labels, sorted.
fn fill_histogram(histogram: &mut Vec<Label>, prepared: &PreparedTree) {
    histogram.clear();
    histogram.extend_from_slice(prepared.left().labels());
    histogram.sort_unstable();
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

    /// Prepares the verification inputs of `tree`. The result is valid
    /// until the next call.
    pub fn prepare(&mut self, tree: &Tree) -> &VerifyData {
        match &mut self.data {
            Some(data) => data.rebuild(tree, &mut self.prep),
            None => self.data = Some(VerifyData::build(tree, &mut self.prep)),
        }
        self.data.as_ref().expect("prepared above")
    }
}

/// The verify chain's stage names — a closed set, in the order
/// [`VerifyEngine::fold_into`] reports them. [`StageCount::stage`] only
/// ever holds one of these. The engine runs `shape-accept`'s mapping half
/// between `label-hist` and `traversal-sed` (see the
/// [module docs](self)).
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

/// One step of the chain: a stage, or one of `shape-accept`'s two halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// `size`: the node-count difference.
    Size,
    /// `shape-accept`'s first half: the rename script of equal shapes.
    Hamming,
    /// `label-hist`: the label multisets' L1 distance.
    LabelHist,
    /// `shape-accept`'s second half: a τ-banded constrained mapping.
    Mapping,
    /// `traversal-sed`: the traversal strings' banded SEDs.
    TraversalSed,
}

impl Step {
    /// The stage this step counts under: its position in [`VERIFY_STAGES`].
    const fn stage(self) -> usize {
        match self {
            Step::Size => SIZE,
            Step::Hamming | Step::Mapping => SHAPE_ACCEPT,
            Step::LabelHist => LABEL_HIST,
            Step::TraversalSed => TRAVERSAL_SED,
        }
    }
}

/// The order the engine runs the chain in — the one place it is stated
/// (see the [module docs](self) for why this order).
const CHAIN: [Step; 5] = [
    Step::Size,
    Step::Hamming,
    Step::LabelHist,
    Step::Mapping,
    Step::TraversalSed,
];

/// Size lower bound `||T1| − |T2|| ≤ TED` (§3.2 footnote 1).
#[inline]
fn size_rejects(a: &VerifyData, b: &VerifyData, tau: u32) -> bool {
    a.len().abs_diff(b.len()) as u32 > tau
}

/// The largest certificate that is provably TED itself: TED is at least
/// the size difference, and a mapping search that finds cost 1 did not
/// find the identity, so the trees differ and TED ≥ 1.
#[inline]
fn tight_certificate(a: &VerifyData, b: &VerifyData) -> u32 {
    a.len().abs_diff(b.len()).max(1) as u32
}

/// Rename-script early accept, `shape-accept`'s first half: same shape ⇒
/// TED ≤ label Hamming distance (`Some(hamming)` when that is ≤ `tau`).
/// See the module docs for why this replaces the (unsound) SED-based
/// accept.
#[inline]
fn shape_certificate(a: &VerifyData, b: &VerifyData, tau: u32) -> Option<u32> {
    if a.shape_hash != b.shape_hash || a.prepared.left().llds() != b.prepared.left().llds() {
        return None;
    }
    // Equal `lld` arrays ⇒ identical shapes; mapping nodes by postorder
    // position and renaming every label mismatch is a valid edit script
    // of cost `hamming`.
    let mut hamming = 0u32;
    for (&la, &lb) in a.postorder().iter().zip(b.postorder()) {
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
    histogram_bound(a.histogram(), b.histogram()) > tau
}

/// Banded traversal-string SED lower bound
/// `max(SED(pre), SED(post)) ≤ TED` (Guha et al.). The postorder half
/// runs first — it reads what is already there; the preorder strings are
/// the mirrored decompositions' label arrays reversed, read unreversed
/// because SED is reversal-invariant.
#[inline]
fn traversal_rejects(a: &VerifyData, b: &VerifyData, tau: u32, sed: &mut SedScratch) -> bool {
    sed_within_with(a.postorder(), b.postorder(), tau, sed).is_none()
        || sed_within_with(
            a.prepared.right().labels(),
            b.prepared.right().labels(),
            tau,
            sed,
        )
        .is_none()
}

/// The verification engine: the filter chain, one exact-TED engine, and
/// the per-stage counters — everything one verifier thread needs.
///
/// Entry points create one engine per verifying thread (the sequential
/// joins own one; `tsj-shard`'s verify pool builds one per worker)
/// and fold the counters into the run's [`JoinStats`] at the end with
/// [`VerifyEngine::fold_into`]. The chain order is fixed, so every
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
    /// Per-stage wall time in nanoseconds not yet published, by position;
    /// only written when `time_stages` is set, drained by
    /// [`VerifyEngine::fold_into`].
    stage_ns: [u64; STAGES],
    /// Row/band buffers of the `traversal-sed` stage and the band tables
    /// of `shape-accept`'s mapping bound; engines are per-worker, so no
    /// locking and no per-pair allocation.
    sed: SedScratch,
    mapping: MappingWorkspace,
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
            sed: SedScratch::default(),
            mapping: MappingWorkspace::new(),
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
    /// this engine evaluates, in that order — the rows
    /// [`VerifyEngine::fold_into`] reports.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages().map(|(_, name)| name).collect()
    }

    /// `(position, name)` of every enabled stage, in [`VERIFY_STAGES`]
    /// order.
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
    /// its own work. Stage time not yet published is kept: it is wall
    /// time, and the next fold publishes it.
    pub fn reset_counters(&mut self) {
        self.counts = [0; STAGES];
        self.lower_skips = 0;
        self.early_accepts = 0;
        self.ted.reset_counters();
    }

    /// Membership check: `Some(d)` iff `TED(a, b) ≤ τ`, where `d ≤ τ` is
    /// a distance certificate — exact when exact TED decided the pair,
    /// otherwise the cost of the edit script `shape-accept` found, which
    /// may overestimate. Joins and streaming monitors (which report pair
    /// *sets*) use this; use [`VerifyEngine::check_exact`] when the caller
    /// surfaces the distance value.
    pub fn check(&mut self, a: &VerifyData, b: &VerifyData) -> Option<u32> {
        self.decide(a, b, false)
    }

    /// Like [`VerifyEngine::check`] but the returned distance is always
    /// **exact**: `shape-accept` only short-circuits on a certificate
    /// `ub ≤ max(1, ||a| − |b||)`, which is provably TED (a rename, or a
    /// run of insertions or deletions the size difference forces);
    /// otherwise the pair falls through to the exact TED DP. Point
    /// queries and the top-k join use this to report `(tree, distance)`
    /// hits.
    pub fn check_exact(&mut self, a: &VerifyData, b: &VerifyData) -> Option<u32> {
        self.decide(a, b, true)
    }

    /// The chain walk behind both check flavours: the steps of [`CHAIN`],
    /// then exact TED.
    #[inline]
    fn decide(&mut self, a: &VerifyData, b: &VerifyData, exact: bool) -> Option<u32> {
        self.decide_in(&CHAIN, a, b, exact)
    }

    /// Walks `chain`'s enabled steps until one resolves the pair, then
    /// runs exact TED. Only [`CHAIN`] reaches it outside tests; the tests
    /// run the other orders that must give the same verdicts and counters.
    #[inline]
    fn decide_in(
        &mut self,
        chain: &[Step],
        a: &VerifyData,
        b: &VerifyData,
        exact: bool,
    ) -> Option<u32> {
        let tau = self.tau;
        // An exact caller takes only a tight certificate, so both halves
        // of `shape-accept` look for no more than that.
        let accept = if exact {
            tau.min(tight_certificate(a, b))
        } else {
            tau
        };
        for &step in chain {
            let stage = step.stage();
            if !self.enabled[stage] {
                continue;
            }
            // `Some(verdict)` when the step resolves the pair: `None` for
            // a lower bound's rejection, `Some(ub)` for an upper bound's
            // certificate.
            let resolved = self.timed(stage, |e| match step {
                Step::Size => size_rejects(a, b, tau).then_some(None),
                Step::Hamming => shape_certificate(a, b, accept).map(Some),
                Step::LabelHist => histogram_rejects(a, b, tau).then_some(None),
                Step::Mapping => {
                    let (left_a, left_b) = (a.prepared.left(), b.prepared.left());
                    mapping_bound_within(left_a, left_b, accept, &mut e.mapping).map(Some)
                }
                Step::TraversalSed => traversal_rejects(a, b, tau, &mut e.sed).then_some(None),
            });
            if let Some(verdict) = resolved {
                return self.resolve(stage, verdict);
            }
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

    /// Records that `stage` resolved a pair: a lower-bound rejection
    /// (`None`) or an upper-bound admission of cost `ub` (`Some(ub)`).
    #[inline]
    fn resolve(&mut self, stage: usize, verdict: Option<u32>) -> Option<u32> {
        self.counts[stage] += 1;
        match verdict {
            Some(_) => self.early_accepts += 1,
            None => self.lower_skips += 1,
        }
        verdict
    }

    /// Folds this engine's counters into `stats`: TED calls, total
    /// lower-bound skips, upper-bound accepts, and one row per enabled
    /// stage. Stage counters merge **by stage name**, so engines with
    /// differently enabled chains fold into one coherent breakdown.
    /// First-folded engines establish the display order of stages not
    /// yet present.
    ///
    /// In profile mode it also publishes the stage time accumulated since
    /// the last fold to `tsj_core_verify_stage_ns_total` and drains it, so
    /// an engine reused across runs publishes every run's time, once.
    pub fn fold_into(&mut self, stats: &mut JoinStats) {
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
        if self.time_stages {
            let obs = tsj_obs::global();
            let stage_ns = std::mem::take(&mut self.stage_ns);
            for (idx, name) in self.stages() {
                obs.counter(&tsj_obs::labeled(
                    "tsj_core_verify_stage_ns_total",
                    "stage",
                    name,
                ))
                .add(stage_ns[idx]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_ted::bounds::{label_histogram, size_bound, traversal_within_with, TraversalStrings};
    use tsj_ted::{tree_distance, TedTree, TedWorkspace};
    use tsj_tree::{parse_bracket, LabelInterner};

    const BOTH: Materialized = Materialized {
        histogram: true,
        mirror: true,
    };

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
        assert!(!traversal_rejects(&d[0], &d[1], 2, &mut SedScratch::new()));
        let mut engine = VerifyEngine::with_filters(2, &VerifyConfig::default());
        assert_eq!(engine.check(&d[0], &d[1]), None);
        // The mapping half, an upper bound, refused it before the SEDs ran.
        assert_eq!(engine.ted_calls(), 1, "only exact TED may decide");
        assert_eq!(engine.early_accepts(), 0);
    }

    #[test]
    fn an_insert_over_a_run_accepts_exactly_without_ted() {
        // One node inserted over two children: the sizes differ by one, so
        // a bound of 1 is TED itself and both check flavours take it.
        let d = data(&["{a{b}{c}{d}}", "{a{b}{x{c}{d}}}"]);
        let mut engine = VerifyEngine::with_filters(1, &VerifyConfig::default());
        assert_eq!(engine.check_exact(&d[0], &d[1]), Some(1));
        assert_eq!(engine.check_exact(&d[1], &d[0]), Some(1), "the delete");
        assert_eq!(engine.check(&d[0], &d[1]), Some(1));
        assert_eq!(engine.ted_calls(), 0);
        assert_eq!(engine.early_accepts(), 3);
    }

    #[test]
    fn a_loose_mapping_certificate_falls_through_in_check_exact() {
        // A leaf inserted and another renamed: the bound finds 2, above
        // max(1, size difference) = 1, so it proves membership only.
        let d = data(&["{a{b}{c}{d}{e}{f}}", "{a{z}{c}{d}{e}{f}{g}}"]);
        let mut engine = VerifyEngine::with_filters(2, &VerifyConfig::default());
        assert_eq!(engine.check(&d[0], &d[1]), Some(2));
        assert_eq!(engine.ted_calls(), 0, "the bound accepted the pair");
        assert_eq!(engine.check_exact(&d[0], &d[1]), Some(2));
        assert_eq!(engine.ted_calls(), 1, "exact TED reported the distance");
        assert_eq!(engine.early_accepts(), 1);
    }

    #[test]
    fn a_fold_publishes_stage_time_once_and_drains_it() {
        let d = data(&["{a{b}{c}{d}}", "{a{b}{x{c}{d}}}", "{q{r}{s}{t}}"]);
        let mut engine = VerifyEngine::with_filters(1, &VerifyConfig::default());
        engine.time_stages = true;
        let run = |engine: &mut VerifyEngine| {
            for _ in 0..50 {
                engine.check(&d[0], &d[1]);
                engine.check(&d[0], &d[2]);
            }
            engine.stage_ns.iter().sum::<u64>()
        };
        assert!(run(&mut engine) > 0);
        let mut stats = JoinStats::default();
        engine.fold_into(&mut stats);
        assert_eq!(engine.stage_ns, [0; STAGES], "published, then drained");
        // A reused engine times its next run and keeps that time across a
        // counter reset until its own fold publishes it.
        let pending = run(&mut engine);
        assert!(pending > 0);
        engine.reset_counters();
        assert_eq!(engine.stage_ns.iter().sum::<u64>(), pending);
        engine.fold_into(&mut stats);
        assert_eq!(engine.stage_ns, [0; STAGES]);
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

    /// One tree's stage inputs as the eager design built them: every one
    /// straight from the [`Tree`] by `tsj_ted`'s standalone constructors,
    /// none through [`PreparedTree`] or a derivation.
    struct RefInputs {
        /// Preorder child counts.
        shape: Vec<u32>,
        strings: TraversalStrings,
        histogram: Vec<Label>,
        ted: TedTree,
    }

    impl RefInputs {
        fn new(tree: &Tree) -> RefInputs {
            let degree = |&node| tree.children(node).count() as u32;
            RefInputs {
                shape: tree.preorder().iter().map(degree).collect(),
                strings: TraversalStrings::new(tree),
                histogram: label_histogram(tree),
                ted: TedTree::new(tree),
            }
        }
    }

    /// The chain as it was before the τ-bounded kernel and the derived
    /// inputs: the same four bounds over [`RefInputs`] in [`CHAIN`]'s
    /// order, `shape-accept`'s mapping half on the tree's own
    /// decomposition, then the full DP and a comparison. `VerifyEngine`
    /// must agree with it on every verdict and every counter.
    struct Reference {
        tau: u32,
        filters: VerifyConfig,
        counts: [u64; STAGES],
        ted_calls: u64,
        sed: SedScratch,
        mapping: MappingWorkspace,
        ws: TedWorkspace,
    }

    impl Reference {
        fn new(tau: u32, filters: VerifyConfig) -> Reference {
            Reference {
                tau,
                filters,
                counts: [0; STAGES],
                ted_calls: 0,
                sed: SedScratch::default(),
                mapping: MappingWorkspace::new(),
                ws: TedWorkspace::new(),
            }
        }

        fn decide(&mut self, a: &RefInputs, b: &RefInputs, exact: bool) -> Option<u32> {
            let (tau, on) = (self.tau, self.filters);
            let enabled = [on.size, on.shape_accept, on.histogram, on.traversal];
            let (n1, n2) = (a.shape.len(), b.shape.len());
            // Only a certificate of at most max(1, size difference) is TED.
            let accept = match exact {
                true => tau.min(size_bound(n1, n2).max(1)),
                false => tau,
            };
            for step in CHAIN.into_iter().filter(|step| enabled[step.stage()]) {
                let resolved = match step {
                    Step::Size => (size_bound(n1, n2) > tau).then_some(None),
                    Step::Hamming => {
                        let (pre_a, pre_b) = (&a.strings.preorder, &b.strings.preorder);
                        let hamming =
                            pre_a.iter().zip(pre_b).filter(|(la, lb)| la != lb).count() as u32;
                        (a.shape == b.shape && hamming <= accept).then_some(Some(hamming))
                    }
                    Step::LabelHist => {
                        (histogram_bound(&a.histogram, &b.histogram) > tau).then_some(None)
                    }
                    Step::Mapping => {
                        mapping_bound_within(&a.ted, &b.ted, accept, &mut self.mapping).map(Some)
                    }
                    Step::TraversalSed => {
                        let within =
                            traversal_within_with(&a.strings, &b.strings, tau, &mut self.sed);
                        (!within).then_some(None)
                    }
                };
                if let Some(verdict) = resolved {
                    self.counts[step.stage()] += 1;
                    return verdict;
                }
            }
            self.ted_calls += 1;
            let d = tree_distance(&a.ted, &b.ted, &mut self.ws);
            (d <= tau).then_some(d)
        }

        /// The engine under test must have decided the same pairs at the
        /// same stages and handed the same number to exact TED.
        fn assert_counters_match(&self, engine: &mut VerifyEngine, context: &str) {
            assert_eq!(engine.ted_calls(), self.ted_calls, "{context}");
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
    /// equal and of very different sizes, skewed shapes that run exact TED
    /// right-side, and a single node — prepared for the engine and, from
    /// the same trees, for the [`Reference`].
    fn mixed_collection() -> (Vec<VerifyData>, Vec<RefInputs>) {
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
        let mut labels = LabelInterner::new();
        for comb in ["{a{x}{b{x}{c{x}{d{x}{e}}}}}", "{a{x}{b{y}{c{x}{d{e}{x}}}}}"] {
            trees.push(parse_bracket(comb, &mut labels).unwrap());
        }
        let data = VerifyData::batch(&trees);
        let comb = &data[data.len() - 1].prepared;
        assert!(comb.right_cost() < comb.left_cost(), "no right-side TED");
        (data, trees.iter().map(RefInputs::new).collect())
    }

    #[test]
    fn bounded_ted_moves_no_verdict_and_no_counter() {
        let (data, inputs) = mixed_collection();
        for mask in 0..16u32 {
            let filters = config_of(mask);
            for tau in [0, 1, 3, 6, 40] {
                let mut engine = VerifyEngine::with_filters(tau, &filters);
                let mut reference = Reference::new(tau, filters);
                for (i, a) in data.iter().enumerate() {
                    for (j, b) in data.iter().enumerate() {
                        let exact = (i + j) % 2 == 0;
                        let got = engine.decide(a, b, exact);
                        let want = reference.decide(&inputs[i], &inputs[j], exact);
                        assert_eq!(got, want, "mask {mask:04b} tau {tau} pair ({i}, {j})");
                    }
                }
                reference.assert_counters_match(&mut engine, &format!("mask {mask:04b} tau {tau}"));
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
        let (data, inputs) = mixed_collection();
        let mut engine = VerifyEngine::with_filters(4096, &VerifyConfig::default());
        let mut reference = Reference::new(4096, VerifyConfig::default());
        for tau in [4096, 64, 9, 4, 2, 1, 0, 3] {
            engine.set_tau(tau);
            reference.tau = tau;
            for (i, a) in data.iter().enumerate() {
                for j in 0..i {
                    assert_eq!(
                        engine.check_exact(a, &data[j]),
                        reference.decide(&inputs[i], &inputs[j], true),
                        "tau {tau}"
                    );
                }
            }
            reference.assert_counters_match(&mut engine, &format!("after tau {tau}"));
        }
    }

    /// Every order of the chain's steps that keeps the lower stages in
    /// [`CHAIN`]'s order among themselves, and `shape-accept`'s two halves
    /// too: the two upper steps take any two of the five slots.
    fn interleavings() -> Vec<[Step; 5]> {
        let is_upper = |step: &Step| matches!(step, Step::Hamming | Step::Mapping);
        let (upper, lower): (Vec<Step>, Vec<Step>) = CHAIN.into_iter().partition(is_upper);
        let mut orders = Vec::new();
        for first in 0..CHAIN.len() {
            for second in first + 1..CHAIN.len() {
                let (mut upper, mut lower) = (upper.iter(), lower.iter());
                orders.push(std::array::from_fn(|slot| {
                    let steps = if slot == first || slot == second {
                        &mut upper
                    } else {
                        &mut lower
                    };
                    *steps.next().expect("five slots, five steps")
                }));
            }
        }
        orders
    }

    /// What an engine's run leaves behind: TED calls, the two totals and
    /// the per-stage rows.
    fn work(engine: &mut VerifyEngine) -> (u64, u64, u64, Vec<StageCount>) {
        let mut stats = JoinStats::default();
        engine.fold_into(&mut stats);
        let totals = (stats.ted_calls, stats.prefilter_skips, stats.early_accepts);
        (totals.0, totals.1, totals.2, stats.stage_counts)
    }

    /// Runs every pair of `data` through both check flavours under every
    /// order of [`interleavings`] and asserts that each order gives
    /// [`CHAIN`]'s verdicts, distances and counters.
    fn assert_order_free(data: &[VerifyData], filters: &VerifyConfig, tau: u32) {
        let orders = interleavings();
        assert_eq!(orders.len(), 10);
        assert!(orders.contains(&CHAIN));
        let mut chain = VerifyEngine::with_filters(tau, filters);
        let verdicts: Vec<_> = data
            .iter()
            .flat_map(|a| data.iter().map(move |b| (a, b)))
            .map(|(a, b)| [chain.check(a, b), chain.check_exact(a, b)])
            .collect();
        let want = work(&mut chain);
        for order in &orders {
            let mut engine = VerifyEngine::with_filters(tau, filters);
            let pairs = data.iter().flat_map(|a| data.iter().map(move |b| (a, b)));
            for ((a, b), want) in pairs.zip(&verdicts) {
                let got = [false, true].map(|exact| engine.decide_in(order, a, b, exact));
                assert_eq!(&got, want, "{order:?} {filters:?} tau {tau}");
            }
            assert_eq!(work(&mut engine), want, "{order:?} {filters:?} tau {tau}");
        }
    }

    #[test]
    fn the_chain_order_moves_no_verdict_and_no_counter() {
        // An upper bound accepts only pairs with TED ≤ τ and a lower bound
        // rejects only pairs with TED > τ, so moving one past the other
        // changes cost only.
        let (data, _) = mixed_collection();
        for mask in 0..16u32 {
            for tau in [0, 1, 3, 6] {
                assert_order_free(&data, &config_of(mask), tau);
            }
        }
    }

    /// [`the_chain_order_moves_no_verdict_and_no_counter`] on every ordered
    /// tree of at most five nodes over two labels, at τ 0..=3. CI runs it
    /// in release (`cargo test --release -p partsj -- --ignored`).
    #[test]
    #[ignore = "exhaustive: seconds in release, far longer in debug"]
    fn the_chain_order_moves_nothing_on_every_small_tree() {
        let mut trees = Vec::new();
        for n in 1..=5 {
            for shape in all_shapes(n) {
                for mask in 0..1u32 << n {
                    let nodes: Vec<_> = shape
                        .iter()
                        .enumerate()
                        .map(|(k, &parent)| {
                            let label = Label::from_raw(1 + ((mask >> k) & 1));
                            (label, (k > 0).then_some(parent))
                        })
                        .collect();
                    trees.push(Tree::from_flattened(&nodes).expect("parents come first"));
                }
            }
        }
        assert_eq!(trees.len(), 2 + 4 + 2 * 8 + 5 * 16 + 14 * 32);
        let data = VerifyData::batch(&trees);
        for tau in 0..=3 {
            assert_order_free(&data, &VerifyConfig::ALL, tau);
        }
    }

    /// Every ordered tree of `n` nodes as preorder parent positions: each
    /// tree of `n − 1` nodes grown by one last node under any node of its
    /// rightmost path.
    fn all_shapes(n: usize) -> Vec<Vec<u32>> {
        let mut shapes = vec![vec![0u32]];
        for k in 1..n as u32 {
            let mut grown = Vec::new();
            for shape in &shapes {
                let mut parent = k - 1;
                loop {
                    let mut next = shape.clone();
                    next.push(parent);
                    grown.push(next);
                    if parent == 0 {
                        break;
                    }
                    parent = shape[parent as usize];
                }
            }
            shapes = grown;
        }
        shapes
    }

    #[test]
    fn a_disabled_stage_never_materialises_its_input() {
        // Same labels, different shapes, TED 3 > τ 2 (Figure 3, mirrored):
        // no bound decides this pair, so a full chain runs every stage on it.
        let specs = ["{1{1{3}}{2}}", "{1{2{3}{1}}}"];
        let built = |filters: &VerifyConfig| {
            let d = data(&specs);
            let mut engine = VerifyEngine::with_filters(2, filters);
            assert_eq!(engine.check(&d[0], &d[1]), None);
            assert_eq!(engine.ted_calls(), 1);
            assert_eq!(d[0].materialized(), d[1].materialized());
            d[0].materialized()
        };
        // Left-side exact TED (mirrored, these shapes favour it) needs
        // nothing beyond what preparation built.
        assert_eq!(built(&VerifyConfig::NONE), Materialized::default());
        let only = |histogram, traversal| VerifyConfig {
            histogram,
            traversal,
            ..VerifyConfig::NONE
        };
        let held = |histogram, mirror| Materialized { histogram, mirror };
        assert_eq!(built(&only(true, false)), held(true, false));
        assert_eq!(built(&only(false, true)), held(false, true));
        assert_eq!(built(&VerifyConfig::ALL), BOTH);
    }

    #[test]
    fn rebuild_refills_what_the_slot_held_and_nothing_else() {
        let mut labels = LabelInterner::new();
        let mut tree = |s| parse_bracket(s, &mut labels).unwrap();
        let (first, second) = (tree("{a{b}{c}}"), tree("{r{c{b}{a}}{q}}"));
        let fresh = VerifyData::new(&second);
        let mut prep = VerifyPrep::new();

        let mut slot = VerifyData::new(&first);
        slot.rebuild(&second, &mut prep);
        assert_eq!(slot.materialized(), Materialized::default());
        assert_eq!(slot.shape_hash, fresh.shape_hash);

        let mut slot = VerifyData::new(&first);
        slot.histogram();
        slot.prepared.right();
        slot.rebuild(&second, &mut prep);
        assert_eq!(slot.materialized(), BOTH);
        assert_eq!(slot.histogram(), fresh.histogram());
        assert_eq!(slot.postorder(), fresh.postorder());
        let (got, want) = (slot.prepared.right(), fresh.prepared.right());
        assert_eq!(got.labels(), want.labels());
        assert_eq!(got.llds(), want.llds());
        assert_eq!(got.keyroots(), want.keyroots());
    }

    #[test]
    fn shape_hash_distinguishes_shapes_sharing_labels() {
        let d = data(&["{a{b}{c}}", "{a{b{c}}}"]);
        assert_ne!(d[0].shape_hash, d[1].shape_hash);
        // Same labels, different shape: the rename script must not accept;
        // the pair's TED 2 comes from a mapping.
        assert_eq!(shape_certificate(&d[0], &d[1], 2), None);
        let mut engine = VerifyEngine::with_filters(2, &VerifyConfig::default());
        assert_eq!(engine.check(&d[0], &d[1]), Some(2));
    }

    /// A path, a star and the two combs of `n` nodes over three labels.
    fn corner_trees(n: usize) -> Vec<Tree> {
        use tsj_tree::TreeBuilder;
        let label = |k: usize| Label::from_raw(1 + (k % 3) as u32);
        // Each spine node gets `before` leaf children left of the next
        // spine node and `after` right of it, while nodes last.
        let grow = |spine: bool, before: usize, after: usize| {
            let mut builder = TreeBuilder::new();
            let mut at = builder.root(label(0));
            while builder.len() < n {
                let mut next = at;
                for slot in 0..before + usize::from(spine) + after {
                    if builder.len() == n {
                        break;
                    }
                    let child = builder.child(at, label(builder.len()));
                    if spine && slot == before {
                        next = child;
                    }
                }
                at = next;
            }
            builder.build()
        };
        vec![
            grow(true, 0, 0),
            grow(false, n, 0),
            grow(true, 0, 1),
            grow(true, 1, 0),
        ]
    }

    /// Every derived input against the `tsj_ted` constructor that walks
    /// the tree for it.
    fn assert_inputs_match(tree: &Tree) {
        let data = VerifyData::new(tree);
        let strings = TraversalStrings::new(tree);
        assert_eq!(data.postorder(), strings.postorder);
        let mut preorder = data.prepared.right().labels().to_vec();
        preorder.reverse();
        assert_eq!(preorder, strings.preorder);
        assert_eq!(data.histogram(), label_histogram(tree));
        assert_eq!(data.materialized(), BOTH);
    }

    #[test]
    fn derived_inputs_match_on_corner_shapes() {
        for n in [1, 2, 5, 12, 33] {
            let trees = corner_trees(n);
            trees.iter().for_each(assert_inputs_match);
            // The shape stage tells the four shapes apart exactly as the
            // degree sequences do (some coincide at the smallest sizes).
            let inputs: Vec<_> = trees
                .iter()
                .map(|t| (VerifyData::new(t), RefInputs::new(t)))
                .collect();
            for (a, ra) in &inputs {
                for (b, rb) in &inputs {
                    let certified = shape_certificate(a, b, u32::MAX).is_some();
                    assert_eq!(certified, ra.shape == rb.shape, "{n} nodes");
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn derived_inputs_match_on_random_trees(seed in proptest::prelude::any::<u64>()) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            use tsj_datagen::{grow_tree, ShapeProfile};
            let mut rng = StdRng::seed_from_u64(seed);
            let profile = ShapeProfile {
                max_fanout: 4,
                max_depth: 9,
                deepen_prob: rng.gen_range(0.0..0.8),
            };
            let size = rng.gen_range(1..48);
            assert_inputs_match(&grow_tree(&mut rng, size, 4, &profile));
        }
    }

    #[test]
    fn workers_released_together_onto_cold_trees_agree_with_one() {
        // Every worker checks every tree against the same two, so all four
        // reach each cold cell at once: one derives, the rest wait for it.
        let run = |data: &[VerifyData], start: &std::sync::Barrier| {
            let mut engine = VerifyEngine::with_filters(6, &VerifyConfig::default());
            start.wait();
            let verdicts: Vec<_> = data
                .iter()
                .flat_map(|a| [engine.check(a, &data[7]), engine.check(&data[26], a)])
                .collect();
            (verdicts, engine.ted_calls())
        };
        let held =
            |data: &[VerifyData]| -> Vec<_> { data.iter().map(VerifyData::materialized).collect() };
        let (alone, _) = mixed_collection();
        let want = run(&alone, &std::sync::Barrier::new(1));
        assert!(want.1 > 0 && held(&alone).contains(&Materialized::default()));

        let (shared, _) = mixed_collection();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| run(&shared, &start)))
                .collect();
            for worker in workers {
                assert_eq!(worker.join().expect("worker panicked"), want);
            }
        });
        assert_eq!(held(&shared), held(&alone));
    }

    /// `tsj_shard::pool` shares `&[VerifyData]` across verify workers.
    #[allow(dead_code)]
    fn verify_data_is_send_and_sync() {
        fn shared<T: Send + Sync>() {}
        shared::<VerifyData>();
    }
}
