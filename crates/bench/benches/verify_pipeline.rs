//! Verification-pipeline benchmarks: what the filter chain buys over
//! bare exact-TED verification.
//!
//! * `verify_pipeline/prep/*` — [`VerifyData::batch`] alone (what is
//!   built per tree ahead of time) and followed by one pass of the
//!   candidate pairs over the cold memo (plus every first-use derivation);
//! * `verify_pipeline/check/*` — the [`partsj::VerifyEngine::check`]
//!   micro-path over a fixed candidate list, full chain vs. no chain, on
//!   a memo earlier passes have warmed;
//! * `verify_pipeline/join/*` — the end-to-end join under both
//!   configurations (same dataset family as the `join/tau` series).
//!
//! Before the timings, the harness prints `verify_pipeline:` info lines
//! with the candidates-per-TED-call ratio at τ ∈ {1, 3} on the
//! `join/tau` dataset (synthetic, n = 150, seed 2015): the ratio is the
//! figure-of-merit for the chain — how many candidates one cubic DP
//! amortizes over — and `ted_calls` with the chain enabled must sit
//! strictly below the filter-free count. A second set of info lines runs
//! the check workload under [`ObsConfig::PROFILE`] and prints where the
//! chain's nanoseconds go per stage, fresh-engine vs reused-engine (the
//! scratch-arena payoff, stage by stage), on both join shapes:
//! `swissprot_like` at τ = 3 and 150-node `synthetic` trees at τ = 6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use partsj::{partsj_join_with, PartSjConfig, VerifyConfig, VerifyData, VerifyEngine};
use std::hint::black_box;
use tsj_datagen::{swissprot_like, synthetic, synthetic_sized, SyntheticParams};
use tsj_obs::ObsConfig;
use tsj_tree::Tree;

fn chain_configs() -> [(&'static str, PartSjConfig); 2] {
    [
        ("full_chain", PartSjConfig::default()),
        (
            "ted_only",
            PartSjConfig {
                verify: VerifyConfig::NONE,
                ..Default::default()
            },
        ),
    ]
}

/// Size-window candidate pairs of a collection — the verifier's input
/// distribution without the probe machinery in the measured loop.
fn candidate_pairs(trees: &[Tree], tau: u32) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for i in 0..trees.len() {
        for j in (i + 1)..trees.len() {
            if trees[i].len().abs_diff(trees[j].len()) as u32 <= tau {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

fn report_ratios() {
    let trees = synthetic(150, &SyntheticParams::default(), 2015);
    // `pr3_chain` is the pre-refactor pipeline (size + traversal-SED
    // inline, no histogram, no early accept) — the baseline the new
    // stages must beat on TED calls.
    let pr3 = (
        "pr3_chain",
        PartSjConfig {
            verify: VerifyConfig {
                size: true,
                traversal: true,
                shape_accept: false,
                histogram: false,
            },
            ..Default::default()
        },
    );
    for tau in [1u32, 3] {
        for (name, config) in chain_configs().into_iter().chain([pr3]) {
            let outcome = partsj_join_with(&trees, tau, &config);
            let stats = &outcome.stats;
            let ratio = stats.candidates as f64 / (stats.ted_calls.max(1)) as f64;
            println!(
                "verify_pipeline: tau={tau} config={name} candidates={} ted_calls={} \
                 prefilter_skips={} early_accepts={} candidates_per_ted={ratio:.2}",
                stats.candidates, stats.ted_calls, stats.prefilter_skips, stats.early_accepts
            );
        }
    }
}

/// Per-stage nanosecond profile of the full-chain check workload on both
/// join shapes — `swissprot_like` at τ = 3 (wide shallow trees, like
/// `join_flat`) and `synthetic` 150-node trees at τ = 6 (like
/// `join_bigtree`), the numbers the chain's order rests on — a fresh
/// engine per pass (cold TED workspace and SED bands every time) vs one
/// engine reused across passes (the serving-loop steady state). Uses
/// [`ObsConfig::PROFILE`]'s stage-timing stamps; restores the default
/// observability configuration before any timed benchmark runs.
fn report_stage_profile() {
    tsj_obs::configure(&ObsConfig::PROFILE);
    let shapes = [
        ("swissprot_like", swissprot_like(90, 2015), 3u32),
        ("synthetic150", synthetic_sized(48, 150, 2015), 6),
    ];
    for (dataset, trees, tau) in shapes {
        profile_stages(dataset, &trees, tau);
    }
    tsj_obs::configure(&ObsConfig::ON);
}

/// Prints one `verify_pipeline: profile` row per mode and stage.
fn profile_stages(dataset: &str, trees: &[Tree], tau: u32) {
    let data: Vec<VerifyData> = VerifyData::batch(trees);
    let pairs = candidate_pairs(trees, tau);
    let config = PartSjConfig::default();
    let passes = 10u32;
    let stage_ns = |stage: &str| {
        tsj_obs::global()
            .counter(&tsj_obs::labeled(
                "tsj_core_verify_stage_ns_total",
                "stage",
                stage,
            ))
            .get()
    };
    let run = |engine: &mut VerifyEngine| {
        let mut within = 0usize;
        for &(i, j) in &pairs {
            within += usize::from(engine.check(&data[i], &data[j]).is_some());
        }
        black_box(within);
    };

    let stage_names = VerifyEngine::new(tau, &config).stage_names();
    let mut baseline: Vec<u64> = stage_names.iter().map(|s| stage_ns(s)).collect();
    for mode in ["fresh_engine", "reused_engine"] {
        let mut stats = tsj_ted::JoinStats::default();
        if mode == "fresh_engine" {
            for _ in 0..passes {
                let mut engine = VerifyEngine::new(tau, &config);
                run(&mut engine);
                engine.fold_into(&mut stats);
            }
        } else {
            let mut engine = VerifyEngine::new(tau, &config);
            for _ in 0..passes {
                run(&mut engine);
            }
            engine.fold_into(&mut stats);
        }
        for (name, base) in stage_names.iter().zip(&mut baseline) {
            let total = stage_ns(name);
            let per_pass = (total - *base) / u64::from(passes);
            println!(
                "verify_pipeline: profile data={dataset} tau={tau} pairs={} mode={mode} \
                 stage={name} ns_per_pass={per_pass}",
                pairs.len()
            );
            *base = total;
        }
    }
}

fn bench_prep(c: &mut Criterion) {
    let trees = swissprot_like(90, 2015);
    let tau = 3u32;
    let pairs = candidate_pairs(&trees, tau);
    let config = PartSjConfig::default();
    let mut group = c.benchmark_group("verify_pipeline/prep");
    group.bench_function("batch", |bench| {
        bench.iter(|| black_box(VerifyData::batch(&trees)))
    });
    let mut engine = VerifyEngine::new(tau, &config);
    group.bench_function("batch+first_touch", |bench| {
        bench.iter(|| {
            let data = VerifyData::batch(&trees);
            let mut within = 0usize;
            for &(i, j) in &pairs {
                within += usize::from(engine.check(&data[i], &data[j]).is_some());
            }
            black_box(within)
        })
    });
    group.finish();
}

fn bench_check(c: &mut Criterion) {
    let trees = swissprot_like(90, 2015);
    let data: Vec<VerifyData> = VerifyData::batch(&trees);
    let mut group = c.benchmark_group("verify_pipeline/check");
    for tau in [1u32, 3] {
        let pairs = candidate_pairs(&trees, tau);
        for (name, config) in chain_configs() {
            group.bench_with_input(BenchmarkId::new(name, tau), &tau, |bench, &tau| {
                bench.iter(|| {
                    let mut engine = VerifyEngine::new(tau, &config);
                    let mut within = 0usize;
                    for &(i, j) in &pairs {
                        within += usize::from(engine.check(&data[i], &data[j]).is_some());
                    }
                    black_box(within)
                })
            });
            // The serving-loop steady state: the engine (and its scratch
            // arena — TED workspace, SED bands) outlives the batch.
            let reused = format!("{name}_reused");
            let mut engine = VerifyEngine::new(tau, &config);
            group.bench_with_input(BenchmarkId::new(reused, tau), &tau, |bench, _| {
                bench.iter(|| {
                    engine.reset_counters();
                    let mut within = 0usize;
                    for &(i, j) in &pairs {
                        within += usize::from(engine.check(&data[i], &data[j]).is_some());
                    }
                    black_box(within)
                })
            });
        }
    }
    group.finish();
}

fn bench_join(c: &mut Criterion) {
    let trees = synthetic(150, &SyntheticParams::default(), 2015);
    let mut group = c.benchmark_group("verify_pipeline/join");
    for tau in [1u32, 3] {
        for (name, config) in chain_configs() {
            group.bench_with_input(BenchmarkId::new(name, tau), &tau, |bench, &tau| {
                bench.iter(|| black_box(partsj_join_with(&trees, tau, &config)))
            });
        }
    }
    group.finish();
}

fn bench_all(c: &mut Criterion) {
    report_ratios();
    report_stage_profile();
    bench_prep(c);
    bench_check(c);
    bench_join(c);
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
