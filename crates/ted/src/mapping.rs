//! A τ-banded **upper** bound on tree edit distance: the cost of the
//! cheapest constrained mapping.
//!
//! Zhang's constrained edit distance (*A constrained edit distance between
//! unordered labeled trees*, Algorithmica 1996; Guha et al. pair it with
//! the traversal-string lower bound in *Approximate XML Joins*, SIGMOD
//! 2002) restricts a mapping so that disjoint subtrees map to disjoint
//! subtrees. Its recurrence over a node pair `(i, j)` either maps the two
//! roots, or collapses one side into a single child's subtree (the other
//! root and its remaining children are inserted or deleted). For ordered
//! trees the child forests are matched by a string edit over the two
//! child sequences, with the subtree table as substitution cost, where
//! the unordered distance takes a bipartite matching.
//!
//! [`mapping_bound_within`] adds two **run moves** to that string edit,
//! the two single edits a plain constrained mapping cannot express:
//!
//! * *insert over a run*: a child `y` of `j` with `m ≥ 2` children is
//!   inserted, and its children map one to one onto `m` consecutive
//!   children of `i`;
//! * *delete over a run*: a child `x` of `i` with `m ≥ 2` children is
//!   deleted, and its children map one to one onto `m` consecutive
//!   children of `j`.
//!
//! **Soundness.** Every table cell is the cost of a concrete mapping:
//! sub-mappings live in disjoint subtrees and each run is placed in order,
//! so ancestry and sibling order are both kept. Any mapping's cost is an
//! upper bound on TED, and restricting the search (the band, the pairs
//! skipped, saturation at `k + 1`) only removes options, so the result is
//! never below TED with no further argument. The exhaustive soak in
//! `tests/properties.rs` also pins that the restriction loses nothing: on
//! small trees the banded answer is `Some` exactly when the unbanded
//! bound is within `k`.
//!
//! The kernel reads only the left decomposition's `labels` and `lld`
//! arrays: the children of `i` are `c = i − 1`, then `c ← lld(c) − 1`
//! while `c ≥ lld(i)` (right to left), and `size(i) = i − lld(i) + 1`.

use crate::ted_tree::TedTree;

/// Reusable buffers of [`mapping_bound_within`]: the band of the subtree
/// and child-forest tables, one child-sequence edit matrix, and both
/// trees' child lists. Grow-only; every band cell a pass reads was written
/// earlier in the same pass, so nothing is cleared between calls.
#[derive(Debug, Default)]
pub struct MappingWorkspace {
    /// Subtree-to-subtree cost, band only.
    tree: Vec<u32>,
    /// Child-forest-to-child-forest cost, band only.
    forest: Vec<u32>,
    /// The child-sequence string edit of the current pair.
    edit: Vec<u32>,
    kids_a: Children,
    kids_b: Children,
}

impl MappingWorkspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> MappingWorkspace {
        MappingWorkspace::default()
    }
}

/// Every node's children in left-to-right order, as one flat list indexed
/// by postorder number (1-based, like [`TedTree`]), and every node's depth.
#[derive(Debug, Default)]
struct Children {
    start: Vec<u32>,
    kids: Vec<u32>,
    depth: Vec<u32>,
}

impl Children {
    fn fill(&mut self, t: &TedTree) {
        let n = t.len();
        self.start.clear();
        self.kids.clear();
        self.start.push(0);
        for i in 1..=n {
            let first = self.kids.len();
            self.start.push(first as u32);
            let mut c = i - 1;
            while c >= t.lld(i) {
                self.kids.push(c as u32);
                c = t.lld(c) - 1;
            }
            self.kids[first..].reverse();
        }
        self.start.push(self.kids.len() as u32);
        // A parent's postorder number is above its children's.
        self.depth.clear();
        self.depth.resize(n + 1, 0);
        for i in (1..=n).rev() {
            let below = self.depth[i] + 1;
            for k in self.start[i]..self.start[i + 1] {
                self.depth[self.kids[k as usize] as usize] = below;
            }
        }
    }

    #[inline]
    fn of(&self, i: usize) -> &[u32] {
        &self.kids[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// How many nodes lie left of `i`'s subtree, inside it, on the path
    /// above it, and right of it (`n` nodes in all).
    #[inline]
    fn regions(&self, t: &TedTree, i: usize) -> [usize; 4] {
        let depth = self.depth[i] as usize;
        let lld = t.lld(i);
        [lld - 1, i - lld + 1, depth, t.len() - i - depth]
    }
}

/// Subtree size of postorder node `i`.
#[inline]
fn size(t: &TedTree, i: usize) -> usize {
    i - t.lld(i) + 1
}

/// `Some(ub)` when a constrained mapping (with run moves) of cost
/// `ub ≤ k` between `a` and `b` is found, `None` otherwise — an upper
/// bound: `ub ≥ TED(a, b)` always. Unit costs only, like
/// [`crate::TedEngine::unit`]: an insertion, a deletion and a relabel each
/// cost 1.
///
/// One bottom-up pass over the postorder pairs `|i − j| ≤ k` fills the
/// band of two tables, subtree cost and child-forest cost; every cell
/// saturates at `k + 1`. It skips a pair whose sizes differ by more than
/// `k` — more generally, whose subtrees would leave more than `k` nodes
/// unmapped across four regions: left of the subtree, inside it, on the
/// path above it, and right of it. A mapping that maps one subtree into
/// the other maps each region only into its counterpart. Both trees must
/// be left decompositions ([`TedTree::new`]).
pub fn mapping_bound_within(
    a: &TedTree,
    b: &TedTree,
    k: u32,
    ws: &mut MappingWorkspace,
) -> Option<u32> {
    let (n1, n2) = (a.len(), b.len());
    let k_nodes = k as usize;
    if n1.abs_diff(n2) > k_nodes {
        return None;
    }
    // No mapping costs more than deleting and inserting everything, so a
    // band and a cap past that change nothing.
    let everything = u32::try_from(n1 + n2).unwrap_or(u32::MAX);
    let at = Band {
        band: k_nodes.min(n1.max(n2)),
        cap: k.min(everything).saturating_add(1),
    };
    let cells = (n1 + 1) * (2 * at.band + 1);
    if ws.tree.len() < cells {
        ws.tree.resize(cells, 0);
        ws.forest.resize(cells, 0);
    }
    ws.kids_a.fill(a);
    ws.kids_b.fill(b);
    let d = pass(a, b, at, ws);
    (d < at.cap).then_some(d)
}

/// The limits of one [`mapping_bound_within`] call and its band layout.
#[derive(Clone, Copy)]
struct Band {
    /// Half-width of the filled band, in nodes.
    band: usize,
    /// Saturation value: one more than the largest cost that matters.
    cap: u32,
}

impl Band {
    /// Cell `(i, j)`, `|i − j| ≤ band`, lives at `row(i) + j`.
    #[inline]
    fn row(self, i: usize) -> usize {
        i * 2 * self.band + self.band
    }

    /// Cell `(i, j)` of `table`, or `cap` outside the band.
    #[inline]
    fn get(self, table: &[u32], i: usize, j: usize) -> u32 {
        if i.abs_diff(j) <= self.band {
            table[self.row(i) + j]
        } else {
            self.cap
        }
    }
}

/// The bottom-up pass; returns the root cell, `cap` when it saturated.
fn pass(a: &TedTree, b: &TedTree, at: Band, ws: &mut MappingWorkspace) -> u32 {
    let Band { band, cap } = at;
    let MappingWorkspace {
        tree,
        forest,
        edit,
        kids_a,
        kids_b,
    } = ws;
    let (n1, n2) = (a.len(), b.len());
    for i in 1..=n1 {
        let (regions_i, kids_i, row) = (kids_a.regions(a, i), kids_a.of(i), at.row(i));
        let size_i = regions_i[1];
        for j in i.saturating_sub(band).max(1)..=(i + band).min(n2) {
            let regions_j = kids_b.regions(b, j);
            let size_j = regions_j[1];
            // A mapping that maps one subtree into the other maps each
            // region only into its counterpart, so it leaves at least this
            // many nodes unmapped.
            let apart: usize = (0..4).map(|r| regions_i[r].abs_diff(regions_j[r])).sum();
            if apart >= cap as usize {
                tree[row + j] = cap;
                forest[row + j] = cap;
                continue;
            }
            let kids_j = kids_b.of(j);
            let pair = Pair {
                a,
                b,
                at,
                kids_i,
                kids_j,
                tree: tree.as_slice(),
            };
            let mut f = pair.child_edit(kids_a, kids_b, edit);
            let mut t = cap;
            // Collapse `j` (and its other children) into one child `y`:
            // `i`'s subtree maps into `y`'s, `i`'s child forest into `y`'s.
            for &y in kids_j {
                let y = y as usize;
                let rest = (size_j - size(b, y)) as u32;
                f = f.min(at.get(forest, i, y) + rest);
                t = t.min(at.get(tree, i, y) + rest);
            }
            for &x in kids_i {
                let x = x as usize;
                let rest = (size_i - size(a, x)) as u32;
                f = f.min(at.get(forest, x, j) + rest);
                t = t.min(at.get(tree, x, j) + rest);
            }
            let f = f.min(cap);
            // Or map the roots onto each other.
            let rename = u32::from(a.label(i) != b.label(j));
            tree[row + j] = t.min(f + rename).min(cap);
            forest[row + j] = f;
        }
    }
    tree[at.row(n1) + n2]
}

/// The inputs of one pair's child-sequence string edit.
struct Pair<'p> {
    a: &'p TedTree,
    b: &'p TedTree,
    at: Band,
    kids_i: &'p [u32],
    kids_j: &'p [u32],
    tree: &'p [u32],
}

impl Pair<'_> {
    /// Subtree cost of child `x` of `i` against child `y` of `j`.
    #[inline]
    fn sub(&self, x: u32, y: u32) -> u32 {
        self.at.get(self.tree, x as usize, y as usize)
    }

    /// A run move: the one inserted or deleted node, plus `xs` (of `a`)
    /// mapped one to one onto `ys` (of `b`); stops once it reaches `cap`.
    #[inline]
    fn run(&self, xs: &[u32], ys: &[u32]) -> u32 {
        let mut cost = 1;
        for (&x, &y) in xs.iter().zip(ys) {
            cost += self.sub(x, y);
            if cost >= self.at.cap {
                break;
            }
        }
        cost
    }

    /// String edit of `kids_i` against `kids_j`: delete or insert a whole
    /// child subtree, substitute by the subtree table, and the two run
    /// moves.
    fn child_edit(&self, kids_a: &Children, kids_b: &Children, edit: &mut Vec<u32>) -> u32 {
        let (p, q) = (self.kids_i.len(), self.kids_j.len());
        let cap = self.at.cap;
        let w = q + 1;
        if edit.len() < (p + 1) * w {
            edit.resize((p + 1) * w, 0);
        }
        edit[0] = 0;
        for (t, &y) in self.kids_j.iter().enumerate() {
            edit[t + 1] = (edit[t] + size(self.b, y as usize) as u32).min(cap);
        }
        for (s, &x) in (1..).zip(self.kids_i) {
            let delete = size(self.a, x as usize) as u32;
            let (row, prev) = (s * w, (s - 1) * w);
            edit[row] = (edit[prev] + delete).min(cap);
            for (t, &y) in (1..).zip(self.kids_j) {
                let mut d = (edit[prev + t] + delete)
                    .min(edit[row + t - 1] + size(self.b, y as usize) as u32)
                    .min(edit[prev + t - 1] + self.sub(x, y));
                // `y` inserted over the run of `i`'s children ending at `x`.
                let grand = kids_b.of(y as usize);
                let m = grand.len();
                if m >= 2 && m <= s {
                    let run = &self.kids_i[s - m..s];
                    d = d.min(edit[(s - m) * w + t - 1] + self.run(run, grand));
                }
                // `x` deleted, its children over the run of `j`'s ending at `y`.
                let grand = kids_a.of(x as usize);
                let m = grand.len();
                if m >= 2 && m <= t {
                    let run = &self.kids_j[t - m..t];
                    d = d.min(edit[prev + t - m] + self.run(grand, run));
                }
                edit[row + t] = d.min(cap);
            }
        }
        edit[p * w + q]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::ted;
    use tsj_tree::{parse_bracket, LabelInterner, Tree};

    fn pair(a: &str, b: &str) -> (Tree, Tree) {
        let mut labels = LabelInterner::new();
        (
            parse_bracket(a, &mut labels).unwrap(),
            parse_bracket(b, &mut labels).unwrap(),
        )
    }

    fn bound(a: &str, b: &str, k: u32) -> Option<u32> {
        let (ta, tb) = pair(a, b);
        let (pa, pb) = (TedTree::new(&ta), TedTree::new(&tb));
        mapping_bound_within(&pa, &pb, k, &mut MappingWorkspace::new())
    }

    #[test]
    fn children_come_from_lld_in_order() {
        let (tree, _) = pair("{f{d{a}{c{b}}}{e}}", "{x}");
        let mut kids = Children::default();
        kids.fill(&TedTree::new(&tree));
        // Postorder: a1 b2 c3 d4 e5 f6.
        assert_eq!(kids.of(6), [4, 5]);
        assert_eq!(kids.of(4), [1, 3]);
        assert_eq!(kids.of(3), [2]);
        assert!(kids.of(1).is_empty() && kids.of(5).is_empty());
    }

    #[test]
    fn single_edits_cost_one() {
        let base = "{r{a}{b{x}{y}}{c}{d}}";
        for edited in [
            "{r{a}{b{x}{z}}{c}{d}}",    // rename
            "{r{a}{b{x}{y}}{c}{d}{e}}", // insert a leaf
            "{r{a}{b{x}{y}}{m{c}}{d}}", // insert over one child
            "{r{a}{m{b{x}{y}}{c}{d}}}", // insert over a run of three
            "{r{a}{x}{y}{c}{d}}",       // delete with two children
            "{r{a}{b{x}{y}}{c}}",       // delete a leaf
            "{r{m{a}{b{x}{y}}}{c}{d}}", // insert over a run of two
        ] {
            assert_eq!(bound(base, edited, 1), Some(1), "{edited}");
            assert_eq!(bound(edited, base, 1), Some(1), "{edited} reversed");
        }
        assert_eq!(bound(base, base, 0), Some(0));
    }

    #[test]
    fn a_run_move_prices_an_insert_over_a_run_at_one() {
        // Insert over a run of two: a plain constrained mapping pays 3
        // (delete both children, insert the new node's subtree); the run
        // move pays 1, at every k that admits it.
        let (a, b) = ("{r{a}{b}{c}{d}}", "{r{a}{m{b}{c}}{d}}");
        assert_eq!(bound(a, b, 3), Some(1));
        assert_eq!(bound(a, b, 1), Some(1));
        assert_eq!(bound(a, b, 0), None);
    }

    #[test]
    fn never_below_ted_on_the_classic_pairs() {
        for (a, b) in [
            ("{f{d{a}{c{b}}}{e}}", "{f{c{d{a}{b}}}{e}}"),
            ("{1{2}{1{3}}}", "{1{2{1}{3}}}"),
            ("{a{b{c}}}", "{b{c{a}}}"),
            ("{r{a{x}}{b}}", "{r{a}{b{x}}}"),
        ] {
            let (ta, tb) = pair(a, b);
            let d = ted(&ta, &tb);
            for k in 0..8 {
                if let Some(ub) = bound(a, b, k) {
                    assert!(d <= ub && ub <= k, "{a} vs {b} at {k}: {ub} < {d}");
                }
            }
        }
        // Figure 3 of the paper: TED 3, refused at τ 2.
        assert_eq!(bound("{1{2}{1{3}}}", "{1{2{1}{3}}}", 2), None);
    }

    #[test]
    fn sizes_past_k_and_huge_thresholds() {
        assert_eq!(bound("{a}", "{a{b}{c}{d}}", 2), None);
        assert_eq!(bound("{a}", "{b{c}{d}}", u32::MAX), Some(3));
        assert_eq!(bound("{a{b}}", "{x{y}}", 1 << 30), Some(2));
    }
}
