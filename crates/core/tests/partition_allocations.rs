//! Pins what the index side of a join asks of the allocator: partitioning
//! and publishing a tree of known shapes through a warm scratch asks for
//! **nothing**; the scratch-less [`build_subgraphs`] for at most three
//! buffers whatever δ; and a whole 600-tree join for less than half of
//! what it did while every subgraph was boxed on its own.
//!
//! The whole file is one `#[test]`: the counting `#[global_allocator]`
//! is process-wide, so this binary must not run unrelated tests whose
//! allocations would race with the counters.

// A `GlobalAlloc` impl cannot be written without `unsafe`. It only
// counts and delegates to `System`.
#![allow(unsafe_code)]

use partsj::{
    build_subgraphs, cuts_for, partition_tree_with, partsj_join_with, PartSjConfig,
    PartitionScratch, SubgraphIndex, WindowPolicy,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tsj_tree::{parse_bracket, BinaryTree, LabelInterner};

/// System allocator counting every `alloc`, `alloc_zeroed` and `realloc`
/// (frees are not counted — whatever is freed was counted when made).
struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls `work` makes.
fn calls_of<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.load(Ordering::SeqCst);
    let out = work();
    (CALLS.load(Ordering::SeqCst) - before, out)
}

/// What the second of two 600-tree joins of the collection below asked
/// of the allocator at the parent commit (PR 23, one `Box<[SgNode]>` and
/// one walk stack per subgraph): 17 066 allocations + 15 321
/// reallocations. This commit reads 6 492 + 4 055 = 10 547 — what is left
/// is the verify inputs of 600 trees and the index's own growth.
const PARENT_JOIN_CALLS: u64 = 17_066 + 15_321;

#[test]
fn the_index_side_of_a_join_leaves_the_allocator_alone() {
    let mut labels = LabelInterner::new();
    let tree = parse_bracket("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}{k{l}{m}}}", &mut labels).unwrap();
    let binary = BinaryTree::from_tree(&tree);
    let (size, posts) = (tree.len() as u32, binary.general_post());
    let scheme = PartSjConfig::default().partitioning;

    // --- Warm scratch, known shapes, spare capacity: nothing -------------
    // τ = 1 under `Tight`: three subgraphs a tree, five postings, at most
    // three of them in one bucket. After nine trees every buffer the
    // tenth touches has room: a bucket holds 9, 18 or 27 postings of a
    // capacity of 16 or 32 (and a tail no longer than 32, so no sort),
    // the pool 27 handles of 32; the shapes were interned by the first.
    let tau = 1;
    let mut index = SubgraphIndex::new(tau, WindowPolicy::Tight);
    let mut scratch = PartitionScratch::new();
    let mut publish = |id: u32, index: &mut SubgraphIndex| {
        let partition = partition_tree_with(&binary, posts, tau, scheme, id, &mut scratch)
            .expect("13 nodes ≥ δ = 3");
        index.insert_tree(size, partition);
    };
    for id in 0..9 {
        publish(id, &mut index);
    }
    let (shapes, arena) = (index.distinct_components(), index.dump().arena.len());
    let (calls, ()) = calls_of(|| publish(9, &mut index));
    assert_eq!(calls, 0, "a warm publish of known shapes allocated");
    assert_eq!((index.len(), index.distinct_components()), (30, shapes));
    assert_eq!(index.dump().arena.len(), arena);

    // --- Scratch-less `build_subgraphs`: three buffers whatever δ --------
    // The node buffer, the δ records, and the cut bits of the walk.
    for tau in [0u32, 1, 2, 3, 6] {
        let delta = 2 * tau as usize + 1;
        let cuts = cuts_for(&binary, delta, scheme, 0);
        let (calls, partition) = calls_of(|| build_subgraphs(&binary, posts, &cuts, 0));
        assert_eq!(partition.len(), delta);
        assert!(calls <= 3, "δ = {delta}: {calls} allocator calls");
    }

    // --- A whole join: under half of what boxed subgraphs cost -----------
    let trees = tsj_datagen::swissprot_like(600, 2015);
    let config = PartSjConfig::default();
    let first = partsj_join_with(&trees, 2, &config);
    let (calls, second) = calls_of(|| partsj_join_with(&trees, 2, &config));
    assert_eq!(first.pairs, second.pairs);
    assert!(
        2 * calls <= PARENT_JOIN_CALLS,
        "a 600-tree join made {calls} allocator calls, the parent {PARENT_JOIN_CALLS}"
    );
}
