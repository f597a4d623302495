//! Micro-benchmarks of the distance kernels: Zhang–Shasha left/right
//! decompositions, the RTED-inspired dynamic choice, the τ-bounded kernel
//! the verify chain runs (`ted/within/*`, with the full DP on the same
//! pair beside it as `ted/full/*` and the banded mapping upper bound that
//! accepts before it as `ted/upper/*`), and banded vs full string edit
//! distance. These are the per-pair costs that dominate the verification
//! bars of Figures 10/12/14.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tsj_datagen::{grow_tree, random_edit_script, ShapeProfile};
use tsj_ted::{
    mapping_bound_within, sed, sed_with, sed_within, sed_within_with, tree_distance,
    tree_distance_bounded, MappingWorkspace, PreparedTree, SedScratch, TedEngine, TedTree,
    TedWorkspace,
};
use tsj_tree::{Label, Tree, TreeBuilder};

fn tree_of_shape(seed: u64, size: usize, deepen: f64) -> Tree {
    let profile = ShapeProfile {
        max_fanout: 4,
        max_depth: 40,
        deepen_prob: deepen,
    };
    grow_tree(&mut StdRng::seed_from_u64(seed), size, 12, &profile)
}

fn bench_ted_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ted/size");
    for size in [20usize, 40, 80, 160] {
        let a = tree_of_shape(1, size, 0.3);
        let b = tree_of_shape(2, size, 0.3);
        let (ta, tb) = (TedTree::new(&a), TedTree::new(&b));
        let mut ws = TedWorkspace::new();
        group.bench_with_input(BenchmarkId::new("zhang_shasha", size), &size, |bench, _| {
            bench.iter(|| black_box(tree_distance(black_box(&ta), black_box(&tb), &mut ws)))
        });
    }
    group.finish();
}

fn bench_ted_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("ted/strategy");
    // Deep right-leaning combs penalize the left decomposition; the
    // engine's dynamic choice should track the better side. Every row
    // prepares both trees per iteration, as `distance_trees` does.
    let a = tree_of_shape(3, 80, 0.8);
    let b = tree_of_shape(4, 80, 0.8);
    let prepared = || {
        (
            PreparedTree::new(black_box(&a)),
            PreparedTree::new(black_box(&b)),
        )
    };
    let mut ws = TedWorkspace::new();
    group.bench_function("left", |bench| {
        bench.iter(|| {
            let (pa, pb) = prepared();
            black_box(tree_distance(pa.left(), pb.left(), &mut ws))
        })
    });
    group.bench_function("right", |bench| {
        bench.iter(|| {
            let (pa, pb) = prepared();
            black_box(tree_distance(pa.right(), pb.right(), &mut ws))
        })
    });
    group.bench_function("dynamic", |bench| {
        let mut engine = TedEngine::unit();
        bench.iter(|| black_box(engine.distance_trees(black_box(&a), black_box(&b))))
    });
    group.finish();
}

/// A spine of `n / 2` nodes, each with a leaf to the left of the next
/// spine node: every spine node is a keyroot of the left decomposition
/// (Σ keyroot spans is quadratic) and none is of the right one.
fn right_comb(n: usize, labels: u32) -> Tree {
    let label = |k: usize| Label::from_raw(1 + (k as u32 * 7) % labels);
    let mut builder = TreeBuilder::with_capacity(n);
    let mut spine = builder.root(label(0));
    for k in (1..n).step_by(2) {
        builder.child(spine, label(k));
        if k + 1 < n {
            spine = builder.child(spine, label(k + 1));
        }
    }
    builder.build()
}

/// The threshold call the verify chain makes, on pairs shaped like the
/// repo benchmark's two join collections (a tree and a mutant of it within
/// τ, the pairs that reach exact TED there) and on the shape where the
/// two decompositions differ most.
fn bench_ted_within(c: &mut Criterion) {
    let grown = |seed, size, labels, max_fanout, max_depth, deepen_prob| {
        let profile = ShapeProfile {
            max_fanout,
            max_depth,
            deepen_prob,
        };
        grow_tree(&mut StdRng::seed_from_u64(seed), size, labels, &profile)
    };
    let inputs = [
        ("bigtree150_tau6", grown(7, 150, 20, 3, 5, 0.25), 20, 6u32),
        ("flat62_tau2", grown(8, 62, 84, 24, 4, 0.0), 84, 2),
        ("right_comb80_tau3", right_comb(80, 12), 12, 3),
    ];
    for (input, base, labels, tau) in inputs {
        let mut rng = StdRng::seed_from_u64(9);
        let (mutant, _) = random_edit_script(&base, tau as usize - 1, &mut rng, labels);
        let (pa, pb) = (PreparedTree::new(&base), PreparedTree::new(&mutant));
        let mut group = c.benchmark_group("ted/within");
        for (name, la, lb) in [
            ("left", pa.left(), pb.left()),
            ("right", pa.right(), pb.right()),
        ] {
            let mut ws = TedWorkspace::new();
            assert!(
                tree_distance_bounded(la, lb, tau, &mut ws).is_some(),
                "{input} is a hit"
            );
            group.bench_function(format!("{input}/{name}"), |bench| {
                bench.iter(|| {
                    black_box(tree_distance_bounded(
                        black_box(la),
                        black_box(lb),
                        tau,
                        &mut ws,
                    ))
                })
            });
        }
        let mut engine = TedEngine::unit();
        group.bench_function(format!("{input}/dynamic"), |bench| {
            bench.iter(|| black_box(engine.verify(black_box(&pa), black_box(&pb), tau)))
        });
        group.finish();
        let mut engine = TedEngine::unit();
        c.benchmark_group("ted/full")
            .bench_function(format!("{input}/dynamic"), |bench| {
                bench.iter(|| black_box(engine.distance(black_box(&pa), black_box(&pb))))
            });
        // The verify chain's accept before exact TED, on the same pair.
        let (la, lb) = (pa.left(), pb.left());
        let mut ws = MappingWorkspace::new();
        let accepted = mapping_bound_within(la, lb, tau, &mut ws).is_some();
        assert!(accepted, "{input} is accepted");
        c.benchmark_group("ted/upper")
            .bench_function(input, |bench| {
                bench.iter(|| {
                    black_box(mapping_bound_within(
                        black_box(la),
                        black_box(lb),
                        tau,
                        &mut ws,
                    ))
                })
            });
    }
}

fn bench_sed(c: &mut Criterion) {
    let mut group = c.benchmark_group("sed");
    let a = tree_of_shape(5, 120, 0.2).preorder_labels();
    let b = tree_of_shape(6, 120, 0.2).preorder_labels();
    group.bench_function("full", |bench| {
        bench.iter(|| black_box(sed(black_box(&a), black_box(&b))))
    });
    // `_scratch` rows reuse one set of DP row buffers across iterations —
    // the join's steady state, isolating the kernel from the allocator.
    let mut scratch = SedScratch::new();
    group.bench_function("full_scratch", |bench| {
        bench.iter(|| black_box(sed_with(black_box(&a), black_box(&b), &mut scratch)))
    });
    for tau in [1u32, 3, 5] {
        group.bench_with_input(BenchmarkId::new("banded", tau), &tau, |bench, &tau| {
            bench.iter(|| black_box(sed_within(black_box(&a), black_box(&b), tau)))
        });
        let mut scratch = SedScratch::new();
        group.bench_with_input(
            BenchmarkId::new("banded_scratch", tau),
            &tau,
            |bench, &tau| {
                bench.iter(|| {
                    black_box(sed_within_with(
                        black_box(&a),
                        black_box(&b),
                        tau,
                        &mut scratch,
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ted_sizes,
    bench_ted_strategies,
    bench_ted_within,
    bench_sed
);
criterion_main!(benches);
