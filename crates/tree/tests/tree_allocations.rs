//! Pins what a tree store asks of the allocator and what it holds:
//! building, cloning and decoding a tree each take a fixed number of
//! allocations whatever its size or shape, and a tree holds 16 bytes a
//! node.
//!
//! The whole file is one `#[test]`: the counting `#[global_allocator]`
//! is process-wide, so this binary must not run unrelated tests whose
//! allocations would race with the counters.

// A `GlobalAlloc` impl cannot be written without `unsafe`. It only
// counts and delegates to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tsj_tree::{Label, NodeId, Tree, TreeBuilder};

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

#[test]
fn a_tree_is_four_allocations_and_sixteen_bytes_a_node() {
    let mut calls = Vec::new();
    for n in [1usize, 62, 1_000] {
        // A ternary heap shape: about a third of the nodes are internal,
        // each of which owned a child list of its own in a per-node layout.
        let (build, tree) = calls_of(|| {
            let mut builder = TreeBuilder::with_capacity(n);
            builder.root(Label::from_raw(1));
            for k in 1..n {
                let label = Label::from_raw(1 + (k % 7) as u32);
                builder.child(NodeId::from_index((k - 1) / 3), label);
            }
            builder.build()
        });
        let flat = tree.flatten();
        let (clone, copy) = calls_of(|| tree.clone());
        let (decode, decoded) = calls_of(|| Tree::from_flattened(&flat).unwrap());
        assert!(decoded.structurally_eq(&tree));
        for held in [&tree, &copy, &decoded] {
            assert_eq!(held.heap_bytes(), 16 * n, "n = {n}");
        }
        calls.push((build, clone, decode));
    }
    // Labels, parents, child offsets and child ids; a single node has no
    // child ids to allocate.
    assert_eq!(calls, [(3, 3, 3), (4, 4, 4), (4, 4, 4)]);

    // Whatever capacity the builder was given, the tree keeps only its
    // length.
    let mut builder = TreeBuilder::with_capacity(100);
    let root = builder.root(Label::from_raw(1));
    builder.child(root, Label::from_raw(2));
    assert_eq!(builder.build().heap_bytes(), 32);
}
