//! Lower bounds on tree edit distance (unit costs).
//!
//! Filters prune a candidate pair whenever *any* lower bound on
//! `TED(T1, T2)` exceeds the join threshold `τ`. This module collects the
//! cheap bounds shared by the baselines:
//!
//! * **size bound** — every operation changes `|T|` by at most one, so
//!   `TED ≥ ||T1| − |T2||` (§3.2 footnote 1, used by all methods);
//! * **label histogram bound** — an insertion/deletion changes the label
//!   multiset by one element and a rename by two, so
//!   `TED ≥ ⌈L1(hist1, hist2) / 2⌉` (the label filter of Kailing et al.);
//! * **traversal string bound** — `max(SED(pre1, pre2), SED(post1, post2))
//!   ≤ TED` (Guha et al., the STR baseline's filter).

use crate::sed::{sed, sed_within, sed_within_with, SedScratch};
use tsj_tree::{Label, Tree};

/// Size lower bound: `||a| − |b||`.
#[inline]
pub fn size_bound(a: usize, b: usize) -> u32 {
    a.abs_diff(b) as u32
}

/// A tree's label multiset in sorted order, for [`histogram_bound`].
pub fn label_histogram(tree: &Tree) -> Vec<Label> {
    let mut labels: Vec<Label> = tree.node_ids().map(|n| tree.label(n)).collect();
    labels.sort_unstable();
    labels
}

/// One lane's worth of histogram entries for the chunked merge fast path.
const CHUNK: usize = 8;

/// Whether two `CHUNK`-sized windows are pairwise equal, as a single
/// branch: the `&=` reduction over fixed-size windows compiles to one
/// vector compare per chunk instead of eight data-dependent branches.
#[inline(always)]
fn chunk_eq<T: Copy + Eq>(a: &[T], b: &[T]) -> bool {
    let mut eq = true;
    for k in 0..CHUNK {
        eq &= a[k] == b[k];
    }
    eq
}

/// Size of the multiset intersection of two sorted slices — the shared
/// kernel of [`histogram_bound`] and [`degree_bound`].
///
/// Near-duplicate histograms (the common case for surviving candidates)
/// are dominated by long identical runs, which the chunked fast path
/// skips `CHUNK` entries at a time with a vectorizable compare. On
/// divergence it falls back to a branchless scalar advance.
#[inline]
fn sorted_common<T: Copy + Ord>(a: &[T], b: &[T]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut common = 0usize;
    while i < a.len() && j < b.len() {
        if i + CHUNK <= a.len()
            && j + CHUNK <= b.len()
            && chunk_eq(&a[i..i + CHUNK], &b[j..j + CHUNK])
        {
            common += CHUNK;
            i += CHUNK;
            j += CHUNK;
            continue;
        }
        let (x, y) = (a[i], b[j]);
        common += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    common
}

/// Label histogram lower bound: `⌈L1 / 2⌉` where `L1` is the symmetric
/// multiset difference size of the two (pre-sorted) label multisets.
pub fn histogram_bound(a: &[Label], b: &[Label]) -> u32 {
    debug_assert!(a.windows(2).all(|w| w[0] <= w[1]), "histogram not sorted");
    debug_assert!(b.windows(2).all(|w| w[0] <= w[1]), "histogram not sorted");
    let common = sorted_common(a, b);
    let l1 = (a.len() - common) + (b.len() - common);
    (l1 as u32).div_ceil(2)
}

/// A tree's multiset of node degrees (child counts) in sorted order, for
/// [`degree_bound`].
pub fn degree_histogram(tree: &Tree) -> Vec<u32> {
    let mut degrees = tree.child_counts();
    degrees.sort_unstable();
    degrees
}

/// Degree histogram lower bound: `⌈L1 / 3⌉`.
///
/// A deletion removes one histogram entry and moves its parent's degree
/// (L1 change ≤ 3); insertion is symmetric; renaming changes nothing —
/// the degree-based filter of Kailing et al. (reference \[16\]) with a
/// conservatively derived constant.
pub fn degree_bound(a: &[u32], b: &[u32]) -> u32 {
    debug_assert!(a.windows(2).all(|w| w[0] <= w[1]), "histogram not sorted");
    debug_assert!(b.windows(2).all(|w| w[0] <= w[1]), "histogram not sorted");
    let common = sorted_common(a, b);
    let l1 = (a.len() - common) + (b.len() - common);
    (l1 as u32).div_ceil(3)
}

/// Precomputed traversal strings for the Guha et al. bound.
#[derive(Debug, Clone)]
pub struct TraversalStrings {
    /// Labels in preorder.
    pub preorder: Vec<Label>,
    /// Labels in postorder.
    pub postorder: Vec<Label>,
}

impl TraversalStrings {
    /// Extracts both traversal strings from `tree`.
    pub fn new(tree: &Tree) -> TraversalStrings {
        TraversalStrings {
            preorder: tree.preorder_labels(),
            postorder: tree.postorder_labels(),
        }
    }
}

/// Traversal-string lower bound: `max(SED(pre), SED(post)) ≤ TED`.
pub fn traversal_bound(a: &TraversalStrings, b: &TraversalStrings) -> u32 {
    sed(&a.preorder, &b.preorder).max(sed(&a.postorder, &b.postorder))
}

/// Threshold form of [`traversal_bound`]: `true` iff both banded string
/// distances stay within `tau`, i.e. the pair survives the STR filter.
pub fn traversal_within(a: &TraversalStrings, b: &TraversalStrings, tau: u32) -> bool {
    sed_within(&a.preorder, &b.preorder, tau).is_some()
        && sed_within(&a.postorder, &b.postorder, tau).is_some()
}

/// [`traversal_within`] with caller-provided SED band buffers; allocation-
/// free in steady state.
pub fn traversal_within_with(
    a: &TraversalStrings,
    b: &TraversalStrings,
    tau: u32,
    scratch: &mut SedScratch,
) -> bool {
    sed_within_with(&a.preorder, &b.preorder, tau, scratch).is_some()
        && sed_within_with(&a.postorder, &b.postorder, tau, scratch).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::ted;
    use tsj_tree::{parse_bracket, LabelInterner};

    fn pair(a: &str, b: &str) -> (Tree, Tree) {
        let mut labels = LabelInterner::new();
        (
            parse_bracket(a, &mut labels).unwrap(),
            parse_bracket(b, &mut labels).unwrap(),
        )
    }

    #[test]
    fn size_bound_basics() {
        assert_eq!(size_bound(10, 10), 0);
        assert_eq!(size_bound(3, 10), 7);
        assert_eq!(size_bound(10, 3), 7);
    }

    #[test]
    fn histogram_bound_basics() {
        let (a, b) = pair("{a{b}{c}}", "{a{b}{c}}");
        let (ha, hb) = (label_histogram(&a), label_histogram(&b));
        assert_eq!(histogram_bound(&ha, &hb), 0);

        let (a, b) = pair("{a{b}{c}}", "{x{y}{z}}");
        let (ha, hb) = (label_histogram(&a), label_histogram(&b));
        // Disjoint multisets of size 3: L1 = 6, bound = 3.
        assert_eq!(histogram_bound(&ha, &hb), 3);
    }

    #[test]
    fn histogram_bound_respects_multiplicity() {
        let (a, b) = pair("{a{a}{a}}", "{a{a}{b}}");
        let (ha, hb) = (label_histogram(&a), label_histogram(&b));
        // Multisets {a,a,a} vs {a,a,b}: L1 = 2, bound = 1.
        assert_eq!(histogram_bound(&ha, &hb), 1);
    }

    #[test]
    fn paper_figure3_traversal_bound() {
        // §2: SED(pre) = 0, SED(post) = 2, TED = 3; bound = 2 ≤ 3.
        let (a, b) = pair("{1{2}{1{3}}}", "{1{2{1}{3}}}");
        let (sa, sb) = (TraversalStrings::new(&a), TraversalStrings::new(&b));
        assert_eq!(sed(&sa.preorder, &sb.preorder), 0);
        assert_eq!(sed(&sa.postorder, &sb.postorder), 2);
        assert_eq!(traversal_bound(&sa, &sb), 2);
        assert_eq!(ted(&a, &b), 3);
    }

    #[test]
    fn traversal_within_matches_bound() {
        let (a, b) = pair("{1{2}{1{3}}}", "{1{2{1}{3}}}");
        let (sa, sb) = (TraversalStrings::new(&a), TraversalStrings::new(&b));
        assert!(!traversal_within(&sa, &sb, 1));
        assert!(traversal_within(&sa, &sb, 2));
        assert!(traversal_within(&sa, &sb, 5));
    }

    #[test]
    fn degree_bound_basics() {
        let (a, b) = pair("{a{b}{c}}", "{a{b}{c}}");
        assert_eq!(
            degree_bound(&degree_histogram(&a), &degree_histogram(&b)),
            0
        );
        // Star vs path of the same size: degrees {3,0,0,0} vs {1,1,1,0}.
        let (a, b) = pair("{r{a}{b}{c}}", "{r{a{b{c}}}}");
        let bound = degree_bound(&degree_histogram(&a), &degree_histogram(&b));
        assert!(bound >= 1);
        assert!(bound <= crate::hybrid::ted(&a, &b));
    }

    #[test]
    fn bounds_never_exceed_ted_on_fixed_cases() {
        let cases = [
            ("{a{b}{c}}", "{a{b}{c}}"),
            ("{a{b}{c}}", "{z{b}{c}}"),
            ("{f{d{a}{c{b}}}{e}}", "{f{c{d{a}{b}}}{e}}"),
            ("{a{b{c{d}}}}", "{d{c{b{a}}}}"),
            ("{r{a}{b}{c}}", "{r}"),
            ("{m{n{o}{p}}{q{r}}}", "{m{q{r}}{n{o}{p}}}"),
        ];
        for (sa, sb) in cases {
            let (a, b) = pair(sa, sb);
            let real = ted(&a, &b);
            assert!(size_bound(a.len(), b.len()) <= real, "{sa} vs {sb}");
            let (ha, hb) = (label_histogram(&a), label_histogram(&b));
            assert!(histogram_bound(&ha, &hb) <= real, "{sa} vs {sb}");
            let (da, db) = (degree_histogram(&a), degree_histogram(&b));
            assert!(degree_bound(&da, &db) <= real, "degree: {sa} vs {sb}");
            let (ta, tb) = (TraversalStrings::new(&a), TraversalStrings::new(&b));
            assert!(traversal_bound(&ta, &tb) <= real, "{sa} vs {sb}");
        }
    }
}
