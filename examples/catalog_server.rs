//! A frozen catalog serving indexed-left joins — the "reference catalog
//! × incoming feed" regime: freeze the catalog's sharded index **once**,
//! persist it as a snapshot, and serve every subsequent probe batch from
//! the loaded snapshot instead of rebuilding the index per join.
//!
//! The demo walks the whole life cycle:
//!
//! 1. **Freeze** a generated reference collection at `τ = 3`.
//! 2. **Save** the snapshot (versioned, per-section checksummed binary).
//! 3. **Load** it back, as a fresh server process would.
//! 4. **Serve** probe batches at *per-query* thresholds `τ ∈ {1, 2, 3}`
//!    from the one snapshot, plus single-probe `query` lookups — and
//!    cross-check one batch against a from-scratch `sharded_rs_join`.
//!
//! ```bash
//! cargo run --release --example catalog_server
//! ```

use tree_similarity_join::prelude::*;

fn main() {
    let config = PartSjConfig::default();
    let shard_cfg = ShardConfig::with_shards(4);
    let frozen_tau = 3;

    // The reference side: a catalog of documents that changes rarely.
    let catalog_trees = swissprot_like(400, 2015);
    println!(
        "catalog: {} trees, avg size {:.1}",
        catalog_trees.len(),
        catalog_trees.iter().map(|t| t.len()).sum::<usize>() as f64 / catalog_trees.len() as f64
    );

    // 1. Freeze: partition + index once, at the largest threshold any
    //    query will ever need.
    let start = std::time::Instant::now();
    let catalog = Catalog::freeze(
        catalog_trees.clone(),
        LabelInterner::new(),
        frozen_tau,
        &config,
        &shard_cfg,
    );
    println!(
        "freeze: tau = {}, {} shards, {} live postings in {:?}",
        catalog.tau(),
        catalog.shard_count(),
        catalog.index().live_postings(),
        start.elapsed()
    );

    // 2. Save the snapshot.
    let path = std::env::temp_dir().join("catalog_server_demo.tsjcat");
    let start = std::time::Instant::now();
    catalog.save(&path).expect("save snapshot");
    let file_len = std::fs::metadata(&path).expect("snapshot metadata").len();
    println!(
        "save: {} bytes to {} in {:?}",
        file_len,
        path.display(),
        start.elapsed()
    );

    // 3. Load it back — this is all a serving process has to do; no
    //    partitioning, no index build.
    let start = std::time::Instant::now();
    let served = Catalog::load(&path).expect("load snapshot");
    println!(
        "load: {} trees, {} shards in {:?}",
        served.len(),
        served.shard_count(),
        start.elapsed()
    );

    // 4. Serve batches at per-query thresholds from the one snapshot.
    //    The feed mixes fresh documents with lightly edited revisions of
    //    catalog entries — the near-duplicates a serving join exists to
    //    find.
    use tree_similarity_join::datagen::random_edit_script;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let mut feed = swissprot_like(60, 7);
    for (i, original) in catalog_trees.iter().enumerate().step_by(7).take(60) {
        let k = (i % frozen_tau as usize) + 1;
        let (revision, _) = random_edit_script(original, k, &mut rng, 64);
        feed.push(revision);
    }
    for tau in 1..=frozen_tau {
        let start = std::time::Instant::now();
        let outcome = served
            .join(&feed, tau, &config, &shard_cfg)
            .expect("tau within the frozen ceiling");
        println!(
            "serve: tau = {tau} -> {} pairs from {} candidates ({} TED calls) in {:?}",
            outcome.pairs.len(),
            outcome.stats.candidates,
            outcome.stats.ted_calls,
            start.elapsed()
        );
    }

    // Cross-check one batch against building the index from scratch.
    let direct = sharded_rs_join(&catalog_trees, &feed, frozen_tau, &config, &shard_cfg);
    let served_full = served
        .join(&feed, frozen_tau, &config, &shard_cfg)
        .expect("frozen tau");
    assert_eq!(
        served_full.pairs, direct.pairs,
        "snapshot-served join must be bit-identical to the direct join"
    );
    println!(
        "cross-check: snapshot join == fresh sharded_rs_join ({} pairs)",
        direct.pairs.len()
    );

    // Single-probe lookups: similarity search with exact distances.
    // feed[60] is the first edited revision, so it has catalog neighbors.
    let probe = &feed[60];
    let hits = served.query(probe, 2, &config).expect("query");
    println!(
        "query: probe 60 has {} neighbors within tau = 2",
        hits.len()
    );
    for (tree, distance) in hits.iter().take(5) {
        println!("  catalog[{tree}] at distance {distance}");
    }

    // A threshold above the frozen ceiling is a typed error, not a
    // silently incomplete result.
    let err = served
        .join(&feed, frozen_tau + 1, &config, &shard_cfg)
        .unwrap_err();
    println!("over-ceiling query rejected: {err}");

    std::fs::remove_file(&path).ok();
}
