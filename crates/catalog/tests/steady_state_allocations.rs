//! Pins the PR's central performance claim: with a warmed
//! [`VerifyEngine`] + scratch, serving-loop probes are **allocation-free
//! in steady state** — `Catalog::query_into` performs zero heap
//! allocations per query, and `Catalog::join_with_scratch` zero per
//! batch join, once every grow-only buffer has seen the workload's
//! maximum sizes.
//!
//! The whole file is one `#[test]`: the counting `#[global_allocator]`
//! is process-wide, so this binary must not run unrelated tests whose
//! allocations would race with the counters.

// The one place the workspace needs `unsafe`: a `GlobalAlloc` impl
// cannot be written without it. It only counts and delegates to
// `System`.
#![allow(unsafe_code)]

use partsj::{PartSjConfig, VerifyEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tsj_catalog::{Catalog, QueryScratch};
use tsj_shard::{FrozenJoinScratch, ShardConfig};
use tsj_ted::PreparedTree;
use tsj_tree::{parse_bracket, LabelInterner, Tree};

/// System allocator with an allocation-event counter (frees are not
/// counted — a steady-state path that frees must have allocated first).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A right comb, and itself less one leaf: TED 1, shapes differ, and the
/// right decomposition is the cheaper one for both.
const RIGHT_COMB: &str = "{a{x}{b{x}{c{x}{d}}}}";
const RIGHT_COMB_PROBE: &str = "{a{x}{b{x}{c{d}}}}";

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

fn parse_all(specs: &[&str], labels: &mut LabelInterner) -> Vec<Tree> {
    specs
        .iter()
        .map(|s| parse_bracket(s, labels).unwrap())
        .collect()
}

#[test]
fn steady_state_probes_allocate_nothing() {
    let mut labels = LabelInterner::new();
    // Size spread on both sides of δ = 2τ + 1 = 5, so the side lists and
    // the partitioned index are both exercised.
    let base = [
        "{a{b}{c}}",
        "{a{b}{c}{d}}",
        "{a{b{c}}{d{e}}}",
        "{q{w}{e}{r}{t}}",
        "{m{n{o{p}}}}",
        "{x{y}}",
        "{z}",
        "{a{b}{c}{d}{e}{f}}",
        RIGHT_COMB,
    ];
    let catalog_trees: Vec<Tree> = (0..64)
        .map(|i| parse_bracket(base[i % base.len()], &mut labels).unwrap())
        .collect();
    let config = PartSjConfig::default();
    let catalog = Catalog::freeze(
        catalog_trees,
        labels.clone(),
        2,
        &config,
        &ShardConfig::with_shards(2),
    );

    // Probe sizes deliberately zig-zag so dirty-scratch reuse across
    // mismatched tree sizes is what's being measured, not a lucky
    // monotone warm-up.
    let probes = parse_all(
        &[
            "{a{b}{c}{d}{e}{f}}",
            "{z}",
            "{a{b{c}}{d{e}}}",
            "{x{y}}",
            "{q{w}{e}{r}{t}}",
            RIGHT_COMB_PROBE,
            "{a{b}{c}}",
        ],
        &mut labels,
    );
    // The comb pair is what makes the recycled probe slot's *sticky*
    // refill the thing measured: one deletion apart, so the pair is a
    // candidate that no bound decides — it passes `label-hist` and both
    // halves of `traversal-sed` (the slot derives its histogram and its
    // mirrored decomposition) and its exact TED runs right-side. Every
    // later probe of the zig-zag refills both in place.
    let comb = PreparedTree::new(&parse_bracket(RIGHT_COMB, &mut labels).unwrap());
    let comb_probe = PreparedTree::new(&probes[5]);
    assert!(
        comb.right_cost() * comb_probe.right_cost() < comb.left_cost() * comb_probe.left_cost()
    );

    // --- Single-probe queries -------------------------------------------
    let mut engine = VerifyEngine::with_filters(2, &config.verify);
    let mut scratch = QueryScratch::default();
    let mut hits = Vec::new();

    // Warm-up: two full passes grow every buffer (including the
    // engine's) to the workload maximum and exercise marker turnover.
    let mut expected = Vec::new();
    for _ in 0..2 {
        expected.clear();
        for probe in &probes {
            catalog
                .query_into(probe, &config, &mut engine, &mut scratch, &mut hits)
                .unwrap();
            expected.push(hits.clone());
        }
    }

    assert!(expected[5].contains(&(8, 1)), "comb probe misses the comb");
    engine.reset_counters();
    for (probe, expected) in probes.iter().zip(&expected) {
        let before = allocations();
        catalog
            .query_into(probe, &config, &mut engine, &mut scratch, &mut hits)
            .unwrap();
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "steady-state query allocated (probe of {} nodes)",
            probe.len()
        );
        assert_eq!(&hits, expected, "recycled query changed its answer");
    }
    assert!(engine.ted_calls() > 0 && engine.prefilter_skips() > 0);

    // --- Batch joins ----------------------------------------------------
    // The returned `JoinStats` owns its per-stage count rows, so a batch
    // join is allowed exactly that one allocation — constant per call,
    // independent of how many probes the batch holds.
    let mut join_engine = VerifyEngine::new(2, &config);
    let mut join_scratch = FrozenJoinScratch::new();
    let mut pairs = Vec::new();
    let large: Vec<Tree> = probes.iter().chain(&probes).cloned().collect();
    let mut run = |batch: &[Tree], pairs: &mut Vec<_>| {
        catalog
            .join_with_scratch(
                batch,
                2,
                &config,
                &mut join_engine,
                &mut join_scratch,
                pairs,
            )
            .unwrap()
    };
    for _ in 0..2 {
        run(&large, &mut pairs);
        run(&probes, &mut pairs);
    }
    let expected_pairs = pairs.clone();

    let before = allocations();
    let stats = run(&probes, &mut pairs);
    let small_allocs = allocations() - before;
    assert_eq!(pairs, expected_pairs, "recycled join changed its answer");
    assert_eq!(stats.results, expected_pairs.len() as u64);

    let before = allocations();
    run(&large, &mut pairs);
    let large_allocs = allocations() - before;

    assert!(
        small_allocs <= 1,
        "steady-state batch join made {small_allocs} allocations \
         (budget: 1, the returned stats' stage-count rows)"
    );
    assert_eq!(
        small_allocs, large_allocs,
        "per-call allocations must not scale with the probe count"
    );
}
