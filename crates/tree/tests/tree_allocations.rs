//! Pins what a tree store asks of the allocator and what it holds:
//! building, cloning, decoding and editing a tree each take two
//! allocations — one a column — whatever its size or shape, and a tree
//! holds 8 bytes a node.
//!
//! The whole file is one `#[test]`: the counting `#[global_allocator]`
//! is process-wide, so this binary must not run unrelated tests whose
//! allocations would race with the counters.

// A `GlobalAlloc` impl cannot be written without `unsafe`. It only
// counts and delegates to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tsj_tree::{apply_edit, EditOp, Label, NodeId, Tree, TreeBuilder};

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

/// A builder that adds node `k` under `parent(k)`, with room for `n`.
fn build(n: usize, parent: impl Fn(usize) -> usize) -> Tree {
    let mut builder = TreeBuilder::with_capacity(n);
    builder.root(Label::from_raw(1));
    for k in 1..n {
        let label = Label::from_raw(1 + (k % 7) as u32);
        builder.child(NodeId::from_index(parent(k)), label);
    }
    builder.build()
}

#[test]
fn a_tree_is_two_allocations_and_eight_bytes_a_node() {
    let mut calls = Vec::new();
    for n in [1usize, 62, 1_000] {
        // A ternary heap shape, about a third of the nodes internal: added
        // breadth-first, which `build` renumbers, and then in preorder, as
        // parsers and edits add nodes.
        let (renumbered, bfs) = calls_of(|| build(n, |k| (k - 1) / 3));
        let (built, tree) = calls_of(|| build(n, |k| bfs.parents()[k] as usize));
        assert_eq!(tree.parents(), bfs.parents());
        let (labels, parents) = (tree.labels().to_vec(), tree.parents().to_vec());
        let flat = tree.flatten();
        let (clone, copy) = calls_of(|| tree.clone());
        let (decode, decoded) = calls_of(|| Tree::from_flattened(&flat).unwrap());
        let (columns, taken) = calls_of(|| Tree::from_columns(labels, parents).unwrap());
        let edits = [
            EditOp::Rename {
                node: NodeId::from_index(n - 1),
                label: Label::from_raw(9),
            },
            EditOp::Insert {
                parent: tree.root(),
                start: 0,
                count: tree.children(tree.root()).count(),
                label: Label::from_raw(9),
            },
        ];
        let mut edit = edits
            .map(|op| calls_of(|| apply_edit(&tree, &op).unwrap()).0)
            .to_vec();
        if n > 1 {
            let op = EditOp::Delete {
                node: NodeId::from_index(1),
            };
            edit.push(calls_of(|| apply_edit(&tree, &op).unwrap()).0);
        }
        assert!(decoded.structurally_eq(&tree) && taken.structurally_eq(&tree));
        for held in [&tree, &bfs, &copy, &decoded, &taken] {
            assert_eq!(held.heap_bytes(), 8 * n, "n = {n}");
        }
        assert!(edit.iter().all(|&c| c == 2), "n = {n}: edits {edit:?}");
        // `from_columns` keeps the caller's two columns.
        calls.push((built, clone, decode, columns, renumbered));
    }
    // One allocation a column; building out of preorder adds one scratch
    // column for the renumbering (a single node is always in preorder).
    assert_eq!(calls, [(2, 2, 2, 0, 2), (2, 2, 2, 0, 3), (2, 2, 2, 0, 3)]);

    // Whatever capacity the builder was given, the tree keeps only its
    // length.
    let mut builder = TreeBuilder::with_capacity(100);
    let root = builder.root(Label::from_raw(1));
    builder.child(root, Label::from_raw(2));
    assert_eq!(builder.build().heap_bytes(), 16);
}
