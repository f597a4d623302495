//! Configuration of the PartSJ join.

/// How subgraphs are assigned to postorder-pruning groups (§3.4).
///
/// The paper assigns subgraph `s_k` (postorder identifier `p_k` in its
/// container tree) to every group key `v ∈ [p_k − ∆′, p_k + ∆′]` with
/// `∆′ = τ − ⌊k/2⌋`, and probes with the postorder number `p` of the
/// examined node.
///
/// Two details are under-specified in the text, and our reproduction (and
/// its brute-force equivalence tests) shows both matter for completeness
/// (see `docs/ARCHITECTURE.md` §Substitutions):
///
/// 1. **Which postorder?** Positions must be *general-tree* postorder
///    numbers (as drawn in the paper's Figure 7), not binary-tree ones.
///    General postorder is edit-stable — an insertion/deletion changes the
///    sequence by exactly one element and preserves all relative orders —
///    so an untouched subgraph root moves by at most one position per
///    operation. Binary (LC-RS) postorder is *not* edit-stable: deleting a
///    node with `m` children reorders `m` nodes past entire subtrees, so
///    no `τ`-sized window is sound in binary coordinates.
/// 2. **Which window?** With general-postorder *suffix* keys (`n − p_k`),
///    the conservative half-width `∆′ = τ` is provably complete: at most
///    `τ` operations land after the untouched root. The paper's tighter
///    `∆′ = τ − ⌊k/2⌋` additionally relies on a dichotomy argument whose
///    step "nodes after `p_k` belong only to subgraphs after `s_k`" does
///    not hold once binary discovery order and general postorder disagree,
///    so we default to the provable window and keep the tight one as an
///    ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowPolicy {
    /// General-postorder suffix keys with the conservative window
    /// `∆′ = τ`. Provably complete; the default.
    #[default]
    Safe,
    /// General-postorder suffix keys with the paper's tight window
    /// `∆′ = τ − ⌊k/2⌋`. **Incomplete**: the dichotomy argument's gap is
    /// real — the randomized sweep (`tests/window_sweep.rs`) observes
    /// missed results at a ~0.2% rate. Ablation only.
    Tight,
    /// Absolute general-postorder keys with the tight window — the most
    /// literal reading of §3.4. **Incomplete** whenever near-duplicate
    /// trees differ in size; kept to demonstrate the correction.
    PaperAbsolute,
}

impl WindowPolicy {
    /// The position key of a probe node with 1-based *general-tree*
    /// postorder `p` in a probing tree of `probe_size` nodes: the suffix
    /// `probe_size − p` under `Safe` and `Tight`, `p` itself under
    /// `PaperAbsolute`.
    #[inline]
    pub fn probe_position(self, p: u32, probe_size: u32) -> u32 {
        match self {
            WindowPolicy::PaperAbsolute => p,
            WindowPolicy::Tight | WindowPolicy::Safe => probe_size - p,
        }
    }
}

/// How a tree is decomposed into `δ = 2τ + 1` subgraphs (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionScheme {
    /// The paper's scheme: maximize the minimum subgraph size via the
    /// greedy `(δ, γ)`-partitionable test and binary search on `γ`.
    #[default]
    MaxMin,
    /// Cut `δ − 1` uniformly random edges — the baseline the paper's §4.3
    /// closing note compares against ("50%–300%" improvement for MaxMin).
    Random {
        /// Seed for the per-tree cut selection.
        seed: u64,
    },
}

/// How a subgraph's *absent* child slots are matched (§3.2's "s matches
/// the structure at the top of the subtree").
///
/// Both are sound: an untouched subgraph keeps its exact edge structure
/// (any operation granting one of its nodes a child would change the
/// subgraph, cf. Lemma 1), so requiring absences to stay absent never
/// prunes a true result. `Exact` is the stronger filter and the default;
/// `Embedding` tolerates extra children below component leaves and exists
/// to measure how much the absence constraints prune.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchSemantics {
    /// A component node without a child/bridge on a side requires the
    /// matched node to also lack a child there.
    #[default]
    Exact,
    /// Absent slots are unconstrained (prefix-embedding).
    Embedding,
}

/// Which stages of the verification filter chain run (see
/// [`crate::verify`] for the chain itself, the order it runs the stages
/// in and why).
///
/// Every stage is *sound* — lower-bound stages only reject pairs whose
/// TED provably exceeds `τ`, upper-bound stages only admit pairs with a
/// valid edit script of cost ≤ `τ` — so any combination of toggles yields
/// the same result pairs as filter-free exact-TED verification (property
/// tested in `tests/filter_soundness.rs` of both `partsj` and
/// `tsj-shard`). Toggles only trade filter work against exact TED calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Size lower bound `||T1| − |T2||` (free: two cached lengths).
    pub size: bool,
    /// Upper-bound early accept, in two halves. Rename script: if the two
    /// trees have identical *shape* (equal leftmost-leaf arrays), renaming
    /// the mismatched labels in place is a valid edit script, so a label
    /// Hamming distance ≤ τ admits the pair; O(1) per pair via a shape
    /// hash, O(n) on the rare hash hit. Mapping: after `label-hist` and
    /// before `traversal-sed`, a τ-banded constrained mapping of cost ≤ τ
    /// admits the pair (`tsj_ted::mapping_bound_within`, unit costs).
    /// Either way the pair skips exact TED.
    pub shape_accept: bool,
    /// Label-histogram L1 lower bound `⌈L1/2⌉` (Kailing et al.), over
    /// sorted label multisets derived per tree on first use. O(n) merge
    /// per pair.
    pub histogram: bool,
    /// Banded traversal-string SED lower bound
    /// `max(SED(pre), SED(post)) ≤ TED` (Guha et al.). O(τ·n) per pair.
    pub traversal: bool,
}

impl Default for VerifyConfig {
    fn default() -> VerifyConfig {
        VerifyConfig {
            size: true,
            shape_accept: true,
            histogram: true,
            traversal: true,
        }
    }
}

impl VerifyConfig {
    /// Every stage disabled: verification is pure exact TED. The oracle
    /// configuration of the filter-soundness property tests.
    pub const NONE: VerifyConfig = VerifyConfig {
        size: false,
        shape_accept: false,
        histogram: false,
        traversal: false,
    };

    /// Every stage enabled (the default chain, as a `const`).
    pub const ALL: VerifyConfig = VerifyConfig {
        size: true,
        shape_accept: true,
        histogram: true,
        traversal: true,
    };
}

/// Full configuration of a PartSJ run.
#[derive(Debug, Clone, Copy)]
pub struct PartSjConfig {
    /// Postorder-pruning window policy.
    pub window: WindowPolicy,
    /// Partitioning scheme.
    pub partitioning: PartitionScheme,
    /// Matching semantics for absent child slots.
    pub matching: MatchSemantics,
    /// Probe batches smaller than this are joined inline by the pooled
    /// joins of `tsj-shard` — thread/channel setup costs more than it
    /// saves on tiny inputs.
    pub parallel_fallback: usize,
    /// Candidate pairs per batch sent to `tsj-shard`'s verifier pool.
    /// Batching amortizes channel synchronization — and, in R×S joins,
    /// the probe-side verification inputs a verifier builds once per
    /// probe per batch — across many pairs.
    pub verify_batch: usize,
    /// Which verification filter stages run before exact TED.
    pub verify: VerifyConfig,
}

impl Default for PartSjConfig {
    fn default() -> PartSjConfig {
        PartSjConfig {
            window: WindowPolicy::default(),
            partitioning: PartitionScheme::default(),
            matching: MatchSemantics::default(),
            parallel_fallback: 64,
            verify_batch: 64,
            verify: VerifyConfig::default(),
        }
    }
}

impl PartSjConfig {
    /// Default configuration with an explicit window policy — the common
    /// shape of the ablation drivers and window-sweep tests.
    pub fn with_window(window: WindowPolicy) -> PartSjConfig {
        PartSjConfig {
            window,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_provably_complete() {
        let config = PartSjConfig::default();
        assert_eq!(config.window, WindowPolicy::Safe);
        assert_eq!(config.partitioning, PartitionScheme::MaxMin);
        assert_eq!(config.matching, MatchSemantics::Exact);
        assert!(config.parallel_fallback > 0);
        assert!(config.verify_batch > 0);
        assert_eq!(config.verify, VerifyConfig::default());
    }

    #[test]
    fn default_chain_enables_every_stage() {
        let verify = VerifyConfig::default();
        assert!(verify.size && verify.shape_accept && verify.histogram && verify.traversal);
        let none = VerifyConfig::NONE;
        assert!(!(none.size || none.shape_accept || none.histogram || none.traversal));
    }
}
