//! String (sequence) edit distance over label sequences.
//!
//! The STR baseline (Guha et al., reference \[13\]) lower-bounds TED by the
//! string edit distance between preorder/postorder label sequences. Joins
//! only care whether that bound exceeds the threshold `τ`, so besides the
//! full two-row DP we provide a banded computation that touches only the
//! `2τ + 1` diagonals around the main diagonal (Ukkonen's observation: a
//! cell `(i, j)` with `|i − j| > τ` can never be part of an alignment of
//! cost ≤ τ under unit costs).
//!
//! Both kernels run out of a caller-provided [`SedScratch`] so that the
//! verify hot path performs no heap allocation per candidate: the row and
//! band buffers grow to the largest sequence seen and are reused from then
//! on. The band buffer uses `u16` cells whenever the distances fit (they
//! do for any sequence under ~32k labels), halving the working set the
//! inner loop streams through.

use tsj_tree::Label;

/// Sentinel larger than any real distance but safe to add to.
const INF: u32 = u32::MAX / 4;

/// Reusable row/band buffers for [`sed_with`] and [`sed_within_with`].
///
/// Grow-only: buffers are resized up to the largest request and never
/// shrink, so steady-state calls are allocation-free. One scratch serves
/// both the full DP (two `u32` rows of length `min(|a|, |b|) + 1`) and the
/// banded DP (two fixed-width band rows, `u16` when distances fit).
/// Carrying a dirty scratch across calls of different sizes is safe — each
/// kernel fully initializes the region it reads.
#[derive(Debug, Default, Clone)]
pub struct SedScratch {
    prev32: Vec<u32>,
    cur32: Vec<u32>,
    prev16: Vec<u16>,
    cur16: Vec<u16>,
}

impl SedScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> SedScratch {
        SedScratch::default()
    }
}

/// A band-buffer cell: `u16` when the distances fit, `u32` otherwise.
/// Only the arithmetic the banded DP needs — everything inlines to plain
/// integer ops.
trait Cell: Copy + Ord {
    /// Sentinel larger than any real distance, safe to `bump` once.
    const INF: Self;
    fn from_u32(v: u32) -> Self;
    fn to_u32(self) -> u32;
    /// `self + 1` (insertion/deletion step).
    fn bump(self) -> Self;
    /// `self + cost` for a 0/1 substitution cost.
    fn add_cost(self, cost: u32) -> Self;
}

impl Cell for u32 {
    const INF: u32 = INF;
    #[inline(always)]
    fn from_u32(v: u32) -> u32 {
        v
    }
    #[inline(always)]
    fn to_u32(self) -> u32 {
        self
    }
    #[inline(always)]
    fn bump(self) -> u32 {
        self + 1
    }
    #[inline(always)]
    fn add_cost(self, cost: u32) -> u32 {
        self + cost
    }
}

impl Cell for u16 {
    // Real cells never exceed m + band + 1 (every in-band cell has a real
    // diagonal predecessor), so INF only ever gets bumped once: INF + 1
    // stays well under u16::MAX.
    const INF: u16 = u16::MAX / 2;
    #[inline(always)]
    fn from_u32(v: u32) -> u16 {
        v as u16
    }
    #[inline(always)]
    fn to_u32(self) -> u32 {
        u32::from(self)
    }
    #[inline(always)]
    fn bump(self) -> u16 {
        self + 1
    }
    #[inline(always)]
    fn add_cost(self, cost: u32) -> u16 {
        self + cost as u16
    }
}

/// Full unit-cost string edit distance (Levenshtein) between two label
/// sequences, using the two-row dynamic program.
///
/// Convenience wrapper over [`sed_with`] that allocates a fresh scratch;
/// hot paths should hold a [`SedScratch`] and call [`sed_with`] directly.
pub fn sed(a: &[Label], b: &[Label]) -> u32 {
    sed_with(a, b, &mut SedScratch::new())
}

/// Full unit-cost string edit distance using caller-provided row buffers.
/// Allocation-free once `scratch` has grown to the sequence length.
pub fn sed_with(a: &[Label], b: &[Label], scratch: &mut SedScratch) -> u32 {
    // Keep the inner loop over the shorter sequence for cache friendliness.
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    let n = b.len();
    if scratch.prev32.len() < n + 1 {
        scratch.prev32.resize(n + 1, 0);
        scratch.cur32.resize(n + 1, 0);
    }
    let mut prev: &mut [u32] = &mut scratch.prev32[..n + 1];
    let mut cur: &mut [u32] = &mut scratch.cur32[..n + 1];
    for (j, cell) in prev.iter_mut().enumerate() {
        *cell = j as u32;
    }
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i as u32 + 1;
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + u32::from(ca != cb);
            cur[j + 1] = subst.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n]
}

/// Banded string edit distance with early rejection.
///
/// Returns `Some(d)` iff `sed(a, b) = d ≤ tau`, and `None` when the
/// distance exceeds `tau`. Runs in `O((τ + 1) · min(|a|, |b|))` time.
///
/// Convenience wrapper over [`sed_within_with`] that allocates a fresh
/// scratch; hot paths should hold a [`SedScratch`] and call
/// [`sed_within_with`] directly.
pub fn sed_within(a: &[Label], b: &[Label], tau: u32) -> Option<u32> {
    sed_within_with(a, b, tau, &mut SedScratch::new())
}

/// Banded string edit distance using caller-provided band buffers.
/// Allocation-free once `scratch` has grown to the band width; uses `u16`
/// cells whenever the distances fit (sequences under ~32k labels).
pub fn sed_within_with(
    a: &[Label],
    b: &[Label],
    tau: u32,
    scratch: &mut SedScratch,
) -> Option<u32> {
    if a.len().abs_diff(b.len()) as u32 > tau {
        return None;
    }
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    // No diagonal lies further out than the longer string is long, so a
    // band that wide is already the whole table: buffers are sized by the
    // input, never by a huge `tau`.
    let band = a.len().min(tau as usize);
    // Real cells are bounded by m + band + 1; pick u16 whenever that fits
    // under its INF sentinel so the inner loop streams half the bytes.
    if a.len() + band + 2 <= u16::INF.to_u32() as usize {
        banded::<u16>(a, b, tau, band, &mut scratch.prev16, &mut scratch.cur16)
    } else {
        banded::<u32>(a, b, tau, band, &mut scratch.prev32, &mut scratch.cur32)
    }
}

/// The banded DP proper, generic over the cell width. `a` is the longer
/// sequence; the length gap has already been checked against `tau`, and
/// `band` is `tau` clamped to `a`'s length.
///
/// The inner loop is branchless: the `j = 0` boundary column is hoisted
/// out, and each remaining cell is a pure min-of-three over the band
/// buffers (compiled to `cmov`/`min` instructions, no data-dependent
/// branches).
fn banded<C: Cell>(
    a: &[Label],
    b: &[Label],
    tau: u32,
    band: usize,
    prev_buf: &mut Vec<C>,
    cur_buf: &mut Vec<C>,
) -> Option<u32> {
    let (m, n) = (a.len(), b.len());

    // Row i covers columns [i.saturating_sub(band), min(n, i + band)].
    let width = 2 * band + 3;
    if prev_buf.len() < width {
        prev_buf.resize(width, C::INF);
        cur_buf.resize(width, C::INF);
    }
    let mut prev: &mut [C] = &mut prev_buf[..width];
    let mut cur: &mut [C] = &mut cur_buf[..width];
    // prev/cur[k] holds cell (i, j) with k = j + band - i + 1 (1-based
    // inside the buffer so k-1 / k+1 never go out of bounds).
    let idx = |i: usize, j: usize| j + band + 1 - i;

    // Row 0: cells (0, j) = j for j ≤ band.
    prev.fill(C::INF);
    for j in 0..=band.min(n) {
        prev[idx(0, j)] = C::from_u32(j as u32);
    }
    if m == 0 {
        let d = prev[idx(0, n)].to_u32();
        return (d <= tau).then_some(d);
    }

    for i in 1..=m {
        cur.fill(C::INF);
        let lo = i.saturating_sub(band);
        let hi = (i + band).min(n);
        debug_assert!(lo <= hi, "band never empties while the gap ≤ τ");
        let mut row_min = C::INF;
        if lo == 0 {
            // Column 0 boundary: (i, 0) costs i deletions. Hoisted so the
            // inner loop needs no j == 0 test.
            let v = C::from_u32(i as u32);
            cur[idx(i, 0)] = v;
            row_min = v;
        }
        for j in lo.max(1)..=hi {
            let k = j + band + 1 - i;
            // (i-1, j-1) sits at the same k in the previous row; it is
            // always a real (in-band) value, so costs never accumulate
            // past INF + 1.
            let subst = prev[k].add_cost(u32::from(a[i - 1] != b[j - 1]));
            // (i-1, j): one diagonal to the right in the previous row.
            let del = prev[k + 1].bump();
            // (i, j-1): left neighbour in the current row.
            let ins = cur[k - 1].bump();
            let best = subst.min(del).min(ins);
            cur[k] = best;
            row_min = row_min.min(best);
        }
        if row_min.to_u32() > tau {
            return None; // the band can only grow costs downward
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let d = prev[idx(m, n)].to_u32();
    (d <= tau).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(ids: &[u32]) -> Vec<Label> {
        ids.iter().map(|&i| Label::from_raw(i)).collect()
    }

    #[test]
    fn empty_and_trivial_cases() {
        assert_eq!(sed(&[], &[]), 0);
        assert_eq!(sed(&labels(&[1, 2, 3]), &[]), 3);
        assert_eq!(sed(&[], &labels(&[1, 2])), 2);
        assert_eq!(sed(&labels(&[1]), &labels(&[1])), 0);
        assert_eq!(sed(&labels(&[1]), &labels(&[2])), 1);
    }

    #[test]
    fn classic_cases() {
        // kitten -> sitting analog with label ids.
        let kitten = labels(&[11, 9, 20, 20, 5, 14]);
        let sitting = labels(&[19, 9, 20, 20, 9, 14, 7]);
        assert_eq!(sed(&kitten, &sitting), 3);
        assert_eq!(sed(&sitting, &kitten), 3);
    }

    #[test]
    fn paper_figure3_sequences() {
        // Preorder sequences of Figure 3 are identical: SED = 0.
        let pre = labels(&[1, 2, 1, 3]);
        assert_eq!(sed(&pre, &pre), 0);
        // Postorder sequences ℓ2ℓ3ℓ1ℓ1 vs ℓ1ℓ3ℓ2ℓ1: SED = 2.
        let post1 = labels(&[2, 3, 1, 1]);
        let post2 = labels(&[1, 3, 2, 1]);
        assert_eq!(sed(&post1, &post2), 2);
    }

    #[test]
    fn banded_agrees_with_full_when_within() {
        let a = labels(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let b = labels(&[1, 9, 3, 4, 6, 7, 8, 8]);
        let full = sed(&a, &b);
        for tau in full..full + 3 {
            assert_eq!(sed_within(&a, &b, tau), Some(full), "tau = {tau}");
        }
        for tau in 0..full {
            assert_eq!(sed_within(&a, &b, tau), None, "tau = {tau}");
        }
    }

    #[test]
    fn banded_rejects_on_length_gap() {
        let a = labels(&[1, 2, 3, 4, 5, 6]);
        let b = labels(&[1]);
        assert_eq!(sed_within(&a, &b, 3), None);
        assert_eq!(sed_within(&a, &b, 5), Some(5));
    }

    #[test]
    fn banded_zero_tau() {
        let a = labels(&[1, 2, 3]);
        assert_eq!(sed_within(&a, &a, 0), Some(0));
        let b = labels(&[1, 2, 4]);
        assert_eq!(sed_within(&a, &b, 0), None);
    }

    #[test]
    fn banded_empty_sequences() {
        assert_eq!(sed_within(&[], &[], 0), Some(0));
        assert_eq!(sed_within(&labels(&[1, 2]), &[], 2), Some(2));
        assert_eq!(sed_within(&labels(&[1, 2]), &[], 1), None);
    }

    #[test]
    fn randomized_banded_equals_full() {
        // Deterministic pseudo-random sweep (no external RNG needed here).
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let la = (next() % 12) as usize;
            let lb = (next() % 12) as usize;
            let a: Vec<Label> = (0..la)
                .map(|_| Label::from_raw((next() % 4) as u32 + 1))
                .collect();
            let b: Vec<Label> = (0..lb)
                .map(|_| Label::from_raw((next() % 4) as u32 + 1))
                .collect();
            let full = sed(&a, &b);
            for tau in 0..8 {
                let banded = sed_within(&a, &b, tau);
                if full <= tau {
                    assert_eq!(banded, Some(full));
                } else {
                    assert_eq!(banded, None);
                }
            }
        }
    }

    #[test]
    fn dirty_scratch_reuse_across_mismatched_sizes() {
        // One scratch carried across wildly different sequence lengths and
        // thresholds must behave exactly like fresh allocations: each call
        // fully initializes the region it reads.
        let mut scratch = SedScratch::new();
        let mut state = 0xdeadbeefcafef00du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..300 {
            let la = (next() % 40) as usize;
            let lb = (next() % 40) as usize;
            let a: Vec<Label> = (0..la)
                .map(|_| Label::from_raw((next() % 5) as u32 + 1))
                .collect();
            let b: Vec<Label> = (0..lb)
                .map(|_| Label::from_raw((next() % 5) as u32 + 1))
                .collect();
            let tau = (next() % 10) as u32;
            let full_fresh = sed(&a, &b);
            assert_eq!(sed_with(&a, &b, &mut scratch), full_fresh, "round {round}");
            let banded = sed_within_with(&a, &b, tau, &mut scratch);
            if full_fresh <= tau {
                assert_eq!(banded, Some(full_fresh), "round {round}");
            } else {
                assert_eq!(banded, None, "round {round}");
            }
        }
    }

    #[test]
    fn band_is_clamped_to_the_longer_string() {
        // τ = u32::MAX used to size the band buffers 2τ + 3 (~34 GB).
        let a = labels(&[1, 2, 3, 4, 5]);
        let b = labels(&[1, 9, 3, 5, 5]);
        let mut scratch = SedScratch::new();
        assert_eq!(
            sed_within_with(&a, &b, u32::MAX, &mut scratch),
            Some(sed(&a, &b))
        );
        assert_eq!(sed_within_with(&a, &[], u32::MAX, &mut scratch), Some(5));
        let cells = scratch.prev16.len() + scratch.prev32.len();
        assert!(cells <= 2 * a.len() + 3, "{cells} band cells for 5 labels");
    }

    #[test]
    fn u32_band_path_matches_u16() {
        // Force the u32 cell path by exceeding the u16 length cutoff and
        // check it agrees with the full DP.
        let len = u16::MAX as usize / 2 + 10;
        let a: Vec<Label> = (0..len)
            .map(|i| Label::from_raw((i % 7) as u32 + 1))
            .collect();
        let mut b = a.clone();
        b[100] = Label::from_raw(99);
        b[2000] = Label::from_raw(98);
        let mut scratch = SedScratch::new();
        assert_eq!(sed_within_with(&a, &b, 3, &mut scratch), Some(2));
        assert_eq!(sed_within_with(&a, &b, 1, &mut scratch), None);
        assert_eq!(sed_within_with(&a, &a, 0, &mut scratch), Some(0));
    }
}
