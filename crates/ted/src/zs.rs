//! The Zhang–Shasha tree edit distance dynamic program.
//!
//! This is the classic O(n²)-space algorithm ("Simple fast algorithms for
//! the editing distance between trees", SIAM J. Comput. 1989, reference
//! \[29] of the paper): for every pair of keyroots, a forest-distance matrix
//! is filled; tree distances of nested relevant subtrees are memoized in a
//! full `n₁ × n₂` table. Worst-case time is O(n₁²·n₂²) but for realistic
//! shapes it behaves like the O(n³) algorithms the paper builds on.
//!
//! Two kernels share the tables. [`tree_distance`] is the unbounded DP —
//! the reference every oracle and baseline runs. [`tree_distance_bounded`]
//! answers "is the distance ≤ τ, and what is it if so" and spends only
//! O(n·τ) cells per surviving keyroot pair (Touzet's k-strip idea); see
//! its docs for the three prunings and why each is exact.
//!
//! Both run the paper's unit-cost model: inserting, deleting and
//! relabeling a node each cost 1, and renaming a node to its own label
//! costs 0.
//!
//! Matrices live in a reusable [`TedWorkspace`] so joins that verify
//! millions of candidate pairs do not allocate per pair (workhorse-buffer
//! pattern from the performance guide).

use crate::ted_tree::TedTree;
use tsj_tree::Label;

/// Reusable scratch matrices for [`tree_distance`] and
/// [`tree_distance_bounded`].
///
/// Create once per thread and pass to every distance computation.
/// Grow-only and never cleared: Zhang–Shasha writes every forest and tree
/// cell before it reads it, and the bounded kernel guards every read of a
/// cell it may have skipped, so cells left over from an earlier (larger,
/// smaller, bounded or full) call are never observed.
#[derive(Debug, Default)]
pub struct TedWorkspace {
    /// Tree-distance table: `(n1+1) × (n2+1)`, row-major, for the full
    /// DP; the diagonal band of it for the bounded one.
    td: Vec<u32>,
    /// Forest-distance table for the current keyroot pair, likewise.
    fd: Vec<u32>,
}

impl TedWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows both tables to at least `cells` cells.
    fn fit(&mut self, cells: usize) {
        if self.td.len() < cells {
            self.td.resize(cells, 0);
            self.fd.resize(cells, 0);
        }
    }
}

#[inline]
fn min3(a: u32, b: u32, c: u32) -> u32 {
    a.min(b).min(c)
}

/// Cost of renaming a node labeled `a` into one labeled `b`.
#[inline]
fn rename(a: Label, b: Label) -> u32 {
    u32::from(a != b)
}

/// Computes the exact tree edit distance between two preprocessed trees.
///
/// Both trees must be preprocessed the same way (both [`TedTree::new`] or
/// both [`TedTree::mirrored`]); mixing decompositions silently computes the
/// distance between one tree and the mirror of the other.
pub fn tree_distance(a: &TedTree, b: &TedTree, ws: &mut TedWorkspace) -> u32 {
    let n1 = a.len();
    let n2 = b.len();
    // The forest matrix of the root keyroot pair is as large as `td`.
    let td_stride = n2 + 1;
    ws.fit((n1 + 1) * td_stride);

    for k1 in a.keyroots().iter().map(|&k| k as usize) {
        for k2 in b.keyroots().iter().map(|&k| k as usize) {
            forest_distance(a, b, k1, k2, &mut ws.fd, &mut ws.td, td_stride);
        }
    }
    ws.td[n1 * td_stride + n2]
}

/// Fills the forest-distance matrix for keyroot pair `(i, j)`, recording
/// tree distances for all node pairs whose relevant forests are prefixes.
#[allow(clippy::too_many_arguments)]
fn forest_distance(
    a: &TedTree,
    b: &TedTree,
    i: usize,
    j: usize,
    fd: &mut [u32],
    td: &mut [u32],
    td_stride: usize,
) {
    let l1 = a.lld(i);
    let l2 = b.lld(j);
    let m = i - l1 + 1; // number of nodes in the left relevant forest
    let n = j - l2 + 1;
    let fs = n + 1; // forest matrix stride

    fd[0] = 0;
    for x in 1..=m {
        fd[x * fs] = fd[(x - 1) * fs] + 1;
    }
    for y in 1..=n {
        fd[y] = fd[y - 1] + 1;
    }

    for x in 1..=m {
        let node_i = l1 + x - 1;
        let row = x * fs;
        let prev_row = row - fs;
        for y in 1..=n {
            let node_j = l2 + y - 1;
            if a.lld(node_i) == l1 && b.lld(node_j) == l2 {
                // Both prefixes are whole trees rooted at node_i / node_j.
                let d = min3(
                    fd[prev_row + y] + 1,
                    fd[row + y - 1] + 1,
                    fd[prev_row + y - 1] + rename(a.label(node_i), b.label(node_j)),
                );
                fd[row + y] = d;
                td[node_i * td_stride + node_j] = d;
            } else {
                // Split off the complete subtrees rooted at node_i/node_j
                // and look their distance up in the memo table.
                let p = a.lld(node_i) - l1; // forest prefix before subtree(node_i)
                let q = b.lld(node_j) - l2;
                fd[row + y] = min3(
                    fd[prev_row + y] + 1,
                    fd[row + y - 1] + 1,
                    fd[p * fs + q] + td[node_i * td_stride + node_j],
                );
            }
        }
    }
}

/// Threshold tree edit distance: `Some(d)` with `d = TED(a, b)` when
/// `d ≤ k`, `None` otherwise — the answer of [`tree_distance`] followed by
/// a comparison, for O(n·k) cells per surviving keyroot pair instead of
/// all of them. Both trees must be preprocessed the same way, as for
/// [`tree_distance`].
///
/// Every cell saturates at `cap = k + 1`; `min` and `+` are monotone, so a
/// saturated table holds exactly `min(true value, cap)`. On top of that,
/// one fact prunes three ways: every node a mapping leaves unmapped is an
/// insertion or a deletion and costs 1, so a mapping of cost ≤ `k` leaves
/// at most `band = k` nodes unmapped, and — mappings
/// preserve postorder and ancestry — pairs node `i` only with a node `j`
/// where `|i − j| ≤ band` in postorder and `|size(i) − size(j)| ≤ band`.
///
/// 1. A forest cell `(x, y)` is the distance between forests of `x` and
///    `y` nodes, at least `|x − y|` unmapped nodes: only the diagonal band
///    `|x − y| ≤ band` is filled, with a `cap` sentinel either side, and a
///    split cell `fd[p][q]` outside the band reads as `cap`.
/// 2. A memoized tree distance `td[i][j]` reads as `cap` unless both the
///    postorder and the size difference are within the band. Every cell
///    that passes was written by some table's band during this call,
///    which is also why the tables need no clearing between calls.
/// 3. The two guards of (2) put `|lld(i) − lld(j)|` within `2·band`, so a
///    keyroot pair whose leftmost leaves are further apart produces no
///    tree cell anyone reads and is skipped. (Skipping on the keyroots'
///    *sizes* would be wrong: the pair's table is the only producer of
///    `td` for the nodes further down its two leftmost paths.)
///
/// The restricted tables never fall below the true saturated values, and
/// along an optimal mapping of cost ≤ `k` every cell the recurrence
/// visits passes the guards, so the root cell is exactly `min(TED, cap)`.
/// Row minima of a forest table never decrease, so a band row that is all
/// `cap` ends the pair early.
///
/// Both tables store their band only — row `x` holds columns
/// `x − band ..= x + band` (and the two sentinels, for `fd`) — so a
/// pair's working set is `O(n·band)` cells, not `O(n²)`.
///
/// Falls back to the full DP when the band would cover the whole table
/// (`band ≥ max(|a|, |b|)`, which includes `k = u32::MAX`).
pub fn tree_distance_bounded(
    a: &TedTree,
    b: &TedTree,
    k: u32,
    ws: &mut TedWorkspace,
) -> Option<u32> {
    let n1 = a.len();
    let n2 = b.len();
    let band = k as usize;
    if n1.abs_diff(n2) > band {
        return None;
    }
    // A cell holds at most `cap` and is added to a cost of 1 or to one
    // other cell; a threshold too large for that is far beyond any band.
    let cap = k.saturating_add(1);
    if band >= n1.max(n2) || cap.checked_add(cap).is_none() {
        let d = tree_distance(a, b, ws);
        return (d <= k).then_some(d);
    }

    let at = Band { band, cap };
    ws.fit((n1 + 1) * at.fd_width());
    for k1 in a.keyroots().iter().map(|&k| k as usize) {
        let l1 = a.lld(k1);
        for k2 in b.keyroots().iter().map(|&k| k as usize) {
            if l1.abs_diff(b.lld(k2)) <= 2 * band {
                bounded_forest_distance(a, b, k1, k2, at, &mut ws.fd, &mut ws.td);
            }
        }
    }
    // The sizes differ by at most `band`, so the root cell is in the band.
    let d = ws.td[at.td_row(n1) + n2];
    (d <= k).then_some(d)
}

/// The limits of one [`tree_distance_bounded`] call and the band-only
/// layout of its two tables.
#[derive(Clone, Copy)]
struct Band {
    /// Half-width of the filled diagonal band, in nodes.
    band: usize,
    /// Saturation value: one more than the threshold.
    cap: u32,
}

impl Band {
    /// Cells per forest-table row: the band and a sentinel either side.
    #[inline]
    fn fd_width(self) -> usize {
        2 * self.band + 3
    }

    /// Forest cell `(x, y)`, `x − band − 1 ≤ y ≤ x + band + 1`, lives at
    /// `fd_row(x) + y`: row `x` starts `fd_width()` cells after row
    /// `x − 1` and is shifted one column to the right of it.
    #[inline]
    fn fd_row(self, x: usize) -> usize {
        x * (self.fd_width() - 1) + self.band + 1
    }

    /// Tree cell `(i, j)`, `|i − j| ≤ band`, lives at `td_row(i) + j`.
    #[inline]
    fn td_row(self, i: usize) -> usize {
        i * 2 * self.band + self.band
    }
}

/// [`forest_distance`] restricted to the band `|x − y| ≤ band`, saturated
/// at `cap`; returns early once a whole band row is `cap`.
#[allow(clippy::too_many_arguments)]
fn bounded_forest_distance(
    a: &TedTree,
    b: &TedTree,
    i: usize,
    j: usize,
    at: Band,
    fd: &mut [u32],
    td: &mut [u32],
) {
    let Band { band, cap } = at;
    let l1 = a.lld(i);
    let l2 = b.lld(j);
    let m = i - l1 + 1;
    let n = j - l2 + 1;
    // Rows past `n + band` lie wholly outside the band.
    let rows = m.min(n + band);

    let row = at.fd_row(0);
    fd[row] = 0;
    for y in 1..=n.min(band) {
        fd[row + y] = (fd[row + y - 1] + 1).min(cap);
    }
    if band < n {
        fd[row + band + 1] = cap;
    }

    for x in 1..=rows {
        let node_i = l1 + x - 1;
        let lld_i = a.lld(node_i);
        let row = at.fd_row(x);
        let prev_row = at.fd_row(x - 1);
        let split_row = at.fd_row(lld_i - l1);
        let td_row = at.td_row(node_i);
        let hi = n.min(x + band);
        // Left edge: column 0 while it is inside the band, then a sentinel.
        let (lo, mut row_min) = if x <= band {
            let d = (fd[prev_row] + 1).min(cap);
            fd[row] = d;
            (1, d)
        } else {
            fd[row + x - band - 1] = cap;
            (x - band, cap)
        };
        for y in lo..=hi {
            let node_j = l2 + y - 1;
            let lld_j = b.lld(node_j);
            let delete = fd[prev_row + y] + 1;
            let insert = fd[row + y - 1] + 1;
            // Only node pairs within the band are ever read back.
            let near = node_i.abs_diff(node_j) <= band;
            let d = if lld_i == l1 && lld_j == l2 {
                let relabel = fd[prev_row + y - 1] + rename(a.label(node_i), b.label(node_j));
                let d = min3(delete, insert, relabel).min(cap);
                if near {
                    td[td_row + node_j] = d;
                }
                d
            } else {
                let p = lld_i - l1;
                let q = lld_j - l2;
                let split = if p.abs_diff(q) <= band {
                    fd[split_row + q]
                } else {
                    cap
                };
                // size(i) − size(j) = (node_i − node_j) − (lld_i − lld_j).
                let tree = if near && (node_i + lld_j).abs_diff(node_j + lld_i) <= band {
                    td[td_row + node_j]
                } else {
                    cap
                };
                min3(delete, insert, split + tree).min(cap)
            };
            fd[row + y] = d;
            row_min = row_min.min(d);
        }
        if hi < n {
            fd[row + hi + 1] = cap;
        }
        if row_min == cap {
            // Every later row is `cap` too; a later pair may read the tree
            // cells among them.
            for x in x + 1..=rows {
                let node_i = l1 + x - 1;
                if a.lld(node_i) != l1 {
                    continue;
                }
                let td_row = at.td_row(node_i);
                for y in x.saturating_sub(band).max(1)..=n.min(x + band) {
                    let node_j = l2 + y - 1;
                    if b.lld(node_j) == l2 && node_i.abs_diff(node_j) <= band {
                        td[td_row + node_j] = cap;
                    }
                }
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_tree::{parse_bracket, LabelInterner, Tree};

    fn pair(a: &str, b: &str) -> (Tree, Tree) {
        let mut labels = LabelInterner::new();
        (
            parse_bracket(a, &mut labels).unwrap(),
            parse_bracket(b, &mut labels).unwrap(),
        )
    }

    fn dist(a: &str, b: &str) -> u32 {
        let (ta, tb) = pair(a, b);
        tree_distance(
            &TedTree::new(&ta),
            &TedTree::new(&tb),
            &mut TedWorkspace::new(),
        )
    }

    #[test]
    fn identical_trees_have_distance_zero() {
        assert_eq!(dist("{a{b}{c{d}}}", "{a{b}{c{d}}}"), 0);
        assert_eq!(dist("{x}", "{x}"), 0);
    }

    #[test]
    fn single_rename() {
        assert_eq!(dist("{a{b}{c}}", "{a{b}{z}}"), 1);
        assert_eq!(dist("{a}", "{b}"), 1);
    }

    #[test]
    fn single_insert_delete() {
        assert_eq!(dist("{a{b}}", "{a{b}{c}}"), 1);
        assert_eq!(dist("{a{b}{c}}", "{a{b}}"), 1);
        // Deleting an inner node splices its children upward: one op.
        assert_eq!(dist("{a{m{b}{c}}}", "{a{b}{c}}"), 1);
    }

    #[test]
    fn classic_zhang_shasha_example() {
        // The worked example from the original ZS paper:
        // d({f{d{a}{c{b}}}{e}}, {f{c{d{a}{b}}}{e}}) = 2.
        assert_eq!(dist("{f{d{a}{c{b}}}{e}}", "{f{c{d{a}{b}}}{e}}"), 2);
    }

    #[test]
    fn paper_figure3_distance_is_three() {
        // §2 of the paper: "It is easy to verify that TED(T1, T2) = 3" for
        // T1 = {1{2}{1{3}}} and T2 = {1{2{1}{3}}}.
        assert_eq!(dist("{1{2}{1{3}}}", "{1{2{1}{3}}}"), 3);
    }

    #[test]
    fn disjoint_trees_cost_everything() {
        // No shared labels: cheapest script renames min(n,m) nodes when the
        // shapes line up, plus size-difference insertions.
        assert_eq!(dist("{a}", "{b{c}{d}}"), 3); // 1 rename + 2 inserts
        assert_eq!(dist("{a{b}}", "{x{y}}"), 2);
    }

    #[test]
    fn distance_to_empty_like_leaf() {
        // Tree vs its root alone: delete every other node.
        assert_eq!(dist("{a{b{c}}{d}}", "{a}"), 3);
    }

    #[test]
    fn sibling_shift() {
        // Moving a subtree between siblings requires delete + insert.
        assert_eq!(dist("{r{a{x}}{b}}", "{r{a}{b{x}}}"), 2);
    }

    #[test]
    fn mirrored_pair_gives_same_distance() {
        let cases = [
            ("{f{d{a}{c{b}}}{e}}", "{f{c{d{a}{b}}}{e}}"),
            ("{1{2}{1{3}}}", "{1{2{1}{3}}}"),
            ("{a{b{c}{d}{e}}{f}}", "{a{f}{b{e}{d}{c}}}"),
            ("{r{a{x}}{b}}", "{r{a}{b{x}}}"),
        ];
        for (sa, sb) in cases {
            let (ta, tb) = pair(sa, sb);
            let left = {
                let (pa, pb) = (TedTree::new(&ta), TedTree::new(&tb));
                tree_distance(&pa, &pb, &mut TedWorkspace::new())
            };
            let right = {
                let (pa, pb) = (TedTree::mirrored(&ta), TedTree::mirrored(&tb));
                tree_distance(&pa, &pb, &mut TedWorkspace::new())
            };
            assert_eq!(
                left, right,
                "left/right decomposition disagree on {sa} vs {sb}"
            );
        }
    }

    /// Random trees, each followed by a mutant of it a few edits away.
    /// Sizes sit in two narrow clusters (about 10 nodes and just under
    /// `max_size`) so unrelated pairs also pass the size check and reach
    /// the band as misses.
    fn trees_and_mutants(seed: u64, count: usize, max_size: usize) -> Vec<TedTree> {
        use rand::{Rng, SeedableRng};
        use tsj_datagen::{grow_tree, random_edit_script, ShapeProfile};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut trees = Vec::new();
        for idx in 0..count {
            let profile = ShapeProfile {
                max_fanout: rng.gen_range(2..=4),
                max_depth: 14,
                deepen_prob: rng.gen_range(0.1..0.7),
            };
            let largest = if idx % 2 == 0 { 13 } else { max_size };
            let size = rng.gen_range(largest - 5..=largest);
            let tree = grow_tree(&mut rng, size, 2, &profile);
            let edits = rng.gen_range(0..=6);
            let (mutant, _) = random_edit_script(&tree, edits, &mut rng, 2);
            trees.push(TedTree::new(&tree));
            trees.push(TedTree::new(&mutant));
        }
        trees
    }

    #[test]
    fn workspace_reuse_is_sound() {
        // The tables are never cleared, so one workspace carried through
        // large and small pairs, hits and misses, bounded and full calls
        // in every order must answer as a fresh workspace does.
        let trees = trees_and_mutants(7, 12, 70);
        let mut shared = TedWorkspace::new();
        for round in 0..2 {
            for (ia, a) in trees.iter().enumerate() {
                for (ib, b) in trees.iter().enumerate() {
                    let d = tree_distance(a, b, &mut TedWorkspace::new());
                    let k = ((ia + 2 * ib) as u32 + round) % 9;
                    assert_eq!(
                        tree_distance_bounded(a, b, k, &mut shared),
                        (d <= k).then_some(d),
                        "{ia} vs {ib} at k = {k}"
                    );
                    // First bounded calls only, then the two kernels in
                    // turn, each on the other's leftovers.
                    if round == 1 {
                        assert_eq!(tree_distance(a, b, &mut shared), d);
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_kernel_never_reads_a_cell_it_did_not_write() {
        // Poison both tables before every call: zeros would fake a hit,
        // large values a miss. Neither kernel may notice.
        let trees = trees_and_mutants(11, 10, 60);
        let mut ws = TedWorkspace::new();
        for poison in [0, 1 << 20] {
            for (ia, a) in trees.iter().enumerate() {
                for (ib, b) in trees.iter().enumerate() {
                    ws.td.fill(poison);
                    ws.fd.fill(poison);
                    let d = tree_distance(a, b, &mut ws);
                    assert_eq!(d, tree_distance(a, b, &mut TedWorkspace::new()));
                    for k in [0, 1, 2, 4, 7] {
                        ws.td.fill(poison);
                        ws.fd.fill(poison);
                        assert_eq!(
                            tree_distance_bounded(a, b, k, &mut ws),
                            (d <= k).then_some(d),
                            "{ia} vs {ib} at k = {k}, poison {poison}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_answers_size_mismatch_and_wide_thresholds_without_a_band() {
        let (small, large) = pair("{a}", "{a{b}{c}{d}{e}}");
        let (small, large) = (TedTree::new(&small), TedTree::new(&large));
        let mut ws = TedWorkspace::new();
        // Size difference 4 > k: answered before any table is touched.
        assert_eq!(tree_distance_bounded(&small, &large, 3, &mut ws), None);
        assert!(ws.td.is_empty());
        // k ≥ max size (a doubling top-k threshold, "no threshold"): full DP.
        for k in [4, 5, 1 << 20, u32::MAX] {
            assert_eq!(tree_distance_bounded(&small, &large, k, &mut ws), Some(4));
        }
    }
}
