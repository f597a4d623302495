//! Pins what a cluster node holds: with two nodes at R = 1, each keeps
//! the index of its own shards and the verification inputs of the trees
//! of its own size classes — not the whole frozen side, and never the
//! whole tree store, not even while it restores.
//!
//! The whole file is one `#[test]`: the counting `#[global_allocator]`
//! is process-wide, so this binary must not run unrelated tests whose
//! allocations would race with the counters.

// The one place the workspace needs `unsafe`: a `GlobalAlloc` impl
// cannot be written without it. It only counts and delegates to
// `System`.
#![allow(unsafe_code)]

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tsj_catalog::{Catalog, SnapshotReader};
use tsj_cluster::{Node, Topology};

/// System allocator with a live-byte counter and its high-water mark.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as a fresh block beside the old one: a realloc may copy.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f`; returns its result, the bytes it left allocated, and the
/// most it had allocated at once.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let out = f();
    let kept = LIVE.load(Ordering::SeqCst) - before;
    (out, kept, PEAK.load(Ordering::SeqCst) - before)
}

#[test]
fn a_node_holds_what_it_owns_and_never_the_whole_tree_store() {
    const SHARDS: usize = 8;
    let trees = tsj_datagen::swissprot_like(1_000, 2015);
    let snapshot = common::freeze(&trees, 2, SHARDS).to_bytes();
    let reader = SnapshotReader::from_bytes(snapshot.clone()).unwrap();
    let every: Vec<u32> = (0..SHARDS as u32).collect();

    // The whole side: what `Catalog::from_bytes` restores beside its
    // trees, here through a node that owns every shard.
    let catalog = Catalog::from_bytes(snapshot.clone()).unwrap();
    let (whole, whole_kept, _) = measured(|| Node::restore(0, &reader, &every).unwrap());
    let whole_bytes = whole.frozen().heap_bytes();
    assert_eq!(whole_bytes, catalog.frozen().heap_bytes());
    drop(catalog);

    let topology = Topology::new(SHARDS, 2, 1).unwrap();
    for n in 0..2 {
        let owned = topology.shards_of(n);
        let (node, kept, peak) = measured(|| Node::restore(n, &reader, &owned).unwrap());
        let ratio = kept as f64 / whole_kept as f64;
        assert!(
            ratio <= 0.6,
            "node {n} keeps {kept} B, {ratio:.2}× the whole side's {whole_kept} B"
        );
        // The snapshot is alive throughout; a whole decoded tree store
        // would be about as large again.
        let bound = (snapshot.len() + kept) as f64 * 1.1;
        assert!(
            ((snapshot.len() + peak) as f64) < bound,
            "node {n}: restore peaked at {peak} B above its {} B snapshot, keeping {kept} B",
            snapshot.len()
        );
        // Half the classes, about half the verification inputs: a node
        // holding every tree's would read about 1×.
        let (verify, whole_verify) = (node.frozen().heap_bytes().verify, whole_bytes.verify);
        let ratio = verify as f64 / whole_verify as f64;
        assert!(
            ratio <= 0.6,
            "node {n} holds {verify} B of verify inputs, {ratio:.2}× the whole side's {whole_verify} B"
        );
        // `heap_bytes` accounts for what the allocator saw kept.
        let counted = node.frozen().heap_bytes().total() as f64;
        assert!(
            (counted / kept as f64 - 1.0).abs() < 0.05,
            "node {n}: heap_bytes {counted} B against {kept} B kept"
        );
    }
    drop(whole);
}
