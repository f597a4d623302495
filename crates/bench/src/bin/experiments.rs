//! Regenerates every table and figure of the paper's evaluation (§4).
//!
//! ```bash
//! cargo run --release -p tsj-bench --bin experiments -- <command> [options]
//! ```
//!
//! Commands:
//!
//! * `table1`              — dataset statistics (realized vs paper)
//! * `fig10`               — runtime vs τ (candgen/TED split), 4 datasets
//! * `fig11`               — #candidates vs τ (+ REL), 4 datasets
//! * `fig12`               — runtime vs cardinality at τ = 3
//! * `fig13`               — #candidates vs cardinality at τ = 3
//! * `fig14 --param P`     — sensitivity, P ∈ fanout|depth|labels|size
//! * `ablation-partition`  — max-min vs random partitioning (§4.3 note)
//! * `ablation-window`     — postorder window policies (correction study)
//! * `ablation-matching`   — exact vs embedding subgraph matching
//! * `catalog`             — freeze/save/reuse a snapshot, serve probes
//!   (requires `--catalog <path>`: freezes and saves when the file is
//!   absent, loads and reuses it when present; either way the served
//!   join is cross-checked against a fresh `sharded_rs_join` and the
//!   process exits nonzero on any mismatch)
//! * `metrics`             — runs a representative workload through
//!   every layer (batch join, sharded R×S join, frozen catalog,
//!   streaming, faulty cluster on a virtual clock), then prints the merged
//!   [`tsj_obs`] metrics in both export formats and self-validates
//!   them: the Prometheus text must pass
//!   [`tsj_obs::export::validate_prometheus`] (no duplicate series,
//!   cumulative buckets monotone), counters must be monotone across
//!   two passes, and the JSON must round-trip through
//!   [`tsj_bench::compare::parse_json`]. Exits nonzero on any failure —
//!   the CI metrics smoke.
//! * `all`                 — everything above in sequence (except
//!   `catalog`, which needs a path)
//!
//! Options: `--scale F` multiplies the default cardinalities (default 1.0;
//! the paper's full scale is reached around `--scale 50` for Swissprot),
//! `--seed N` changes the generator seed (default 2015),
//! `--catalog PATH` names the snapshot file of the `catalog` command,
//! `--tau N` (default 3) sets its freeze threshold, `--shards N`
//! (default 1) its shard count, and `--balanced-shards` routes its
//! freeze with `ShardConfig::balanced_shards` — results are
//! bit-identical to the hash map, so the flag only moves the time
//! columns. `metrics` runs on `max(N, 2)` shards. Any other command
//! refuses both shard flags: the figure and table commands never shard.

use partsj::{
    partsj_join_detailed, partsj_join_with, MatchSemantics, PartSjConfig, PartitionScheme,
    WindowPolicy, VERIFY_STAGES,
};
use std::time::Instant;
use tsj_bench::{dataset_with_stats, render_table, secs, stage_count, stats_row, Dataset, Method};
use tsj_datagen::{synthetic, SyntheticParams};
use tsj_shard::ShardConfig;
use tsj_ted::JoinOutcome;
use tsj_tree::Tree;

#[derive(Debug, Clone)]
struct Options {
    scale: f64,
    seed: u64,
    param: Option<String>,
    shards: usize,
    catalog: Option<String>,
    tau: u32,
    balanced_shards: bool,
}

impl Options {
    /// The `ShardConfig` the `catalog` command freezes and joins with.
    fn shard_config(&self) -> ShardConfig {
        ShardConfig {
            shards: self.shards.max(1),
            balanced_shards: self.balanced_shards,
            ..Default::default()
        }
    }
}

const USAGE: &str = "usage: experiments <table1|fig10|fig11|fig12|fig13|fig14|ablation-partition|ablation-window|ablation-matching|catalog|metrics|all> [--scale F] [--seed N] [--param P] [--catalog PATH] [--tau N] [--shards N] [--balanced-shards]";

/// Parses `<command> [options]`; an error is the line to print above
/// [`USAGE`].
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(String, Options), String> {
    let command = args.next().ok_or("missing command")?;
    let mut options = Options {
        scale: 1.0,
        seed: 2015,
        param: None,
        shards: 1,
        catalog: None,
        tau: 3,
        balanced_shards: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--scale" => options.scale = number(&flag, value()?)?,
            "--seed" => options.seed = number(&flag, value()?)?,
            "--param" => options.param = Some(value()?),
            "--shards" => {
                options.shards = number(&flag, value()?)?;
                read_by(&command, &flag, &["catalog", "metrics"])?;
            }
            "--catalog" => options.catalog = Some(value()?),
            "--tau" => options.tau = number(&flag, value()?)?,
            "--balanced-shards" => {
                options.balanced_shards = true;
                read_by(&command, &flag, &["catalog"])?;
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok((command, options))
}

/// An error unless `command` is one of `readers`, the commands that read
/// `flag`: elsewhere the flag would be parsed and silently ignored.
fn read_by(command: &str, flag: &str, readers: &[&str]) -> Result<(), String> {
    if readers.contains(&command) {
        Ok(())
    } else {
        let readers = readers.join(" and ");
        Err(format!("{flag} applies to {readers} only, not {command}"))
    }
}

/// `value` parsed as the number `flag` takes.
fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value for {flag}: {value}"))
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(10)
}

fn main() {
    let (command, options) = parse_args(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("{message}\n{USAGE}");
        std::process::exit(2);
    });
    match command.as_str() {
        "table1" => table1(&options),
        "fig10" => fig10_11(&options, true),
        "fig11" => fig10_11(&options, false),
        "fig12" => fig12_13(&options, true),
        "fig13" => fig12_13(&options, false),
        "fig14" => {
            let param = options.param.clone().unwrap_or_else(|| {
                eprintln!("fig14 requires --param fanout|depth|labels|size");
                std::process::exit(2);
            });
            fig14(&options, &param);
        }
        "ablation-partition" => ablation_partition(&options),
        "ablation-window" => ablation_window(&options),
        "ablation-matching" => ablation_matching(&options),
        "catalog" => catalog_cmd(&options),
        "metrics" => metrics_cmd(&options),
        "all" => {
            table1(&options);
            fig10_11(&options, true);
            fig10_11(&options, false);
            fig12_13(&options, true);
            fig12_13(&options, false);
            for param in ["fanout", "depth", "labels", "size"] {
                fig14(&options, param);
            }
            ablation_partition(&options);
            ablation_window(&options);
            ablation_matching(&options);
            metrics_cmd(&options);
        }
        other => {
            eprintln!("unknown command {other}");
            std::process::exit(2);
        }
    }
}

/// Dataset statistics: the realized simulator stats against the paper's.
fn table1(options: &Options) {
    println!("\n== Dataset statistics (cf. §4 dataset descriptions & Table 1) ==");
    println!(
        "(simulated stand-ins for the real datasets; --scale {} of harness defaults)\n",
        options.scale
    );
    let mut rows = Vec::new();
    for dataset in Dataset::ALL {
        let n = scaled(dataset.default_cardinality(), options.scale);
        let (_, stats) = dataset_with_stats(dataset, n, options.seed);
        rows.push(stats_row(dataset, &stats));
    }
    println!(
        "{}",
        render_table(
            &[
                "dataset",
                "trees",
                "avg size",
                "labels",
                "avg depth",
                "max depth"
            ],
            &rows
        )
    );
}

/// Figures 10 & 11: τ sweep per dataset; runtime split and candidates.
fn fig10_11(options: &Options, runtime: bool) {
    let which = if runtime {
        "Figure 10 (runtime vs τ)"
    } else {
        "Figure 11 (candidates vs τ)"
    };
    println!("\n== {which} ==\n");
    for dataset in Dataset::ALL {
        let n = scaled(dataset.default_cardinality(), options.scale);
        let trees = dataset.generate(n, options.seed);
        println!("-- {} ({} trees) --", dataset.name(), n);
        let mut rows = Vec::new();
        for tau in 1..=5u32 {
            let mut rel = None;
            for method in Method::ALL {
                let outcome = method.run(&trees, tau);
                rel.get_or_insert(outcome.stats.results);
                if runtime {
                    rows.push(vec![
                        format!("{tau}"),
                        method.name().into(),
                        secs(outcome.stats.candidate_time),
                        secs(outcome.stats.verify_time),
                        secs(outcome.stats.total_time()),
                    ]);
                } else {
                    rows.push(candidate_row(format!("{tau}"), method, &outcome.stats));
                }
            }
        }
        if runtime {
            println!(
                "{}",
                render_table(
                    &["tau", "method", "candgen(s)", "ted(s)", "total(s)"],
                    &rows
                )
            );
        } else {
            println!("{}", render_table(&candidate_header("tau"), &rows));
        }
    }
}

/// Header of the candidate tables: key column, method, candidates, the
/// per-stage kill counters, exact TED calls, and result pairs.
fn candidate_header(key: &'static str) -> Vec<&'static str> {
    let mut header = vec![key, "method", "candidates"];
    header.extend(VERIFY_STAGES);
    header.push("ted calls");
    header.push("REL");
    header
}

/// One candidate-table row, aligned with [`candidate_header`]: where the
/// method's candidates died, stage by stage, then the exact TED calls.
fn candidate_row(key: String, method: Method, stats: &tsj_ted::JoinStats) -> Vec<String> {
    let mut row = vec![key, method.name().into(), format!("{}", stats.candidates)];
    for stage in VERIFY_STAGES {
        row.push(format!("{}", stage_count(stats, stage)));
    }
    row.push(format!("{}", stats.ted_calls));
    row.push(format!("{}", stats.results));
    row
}

/// Figures 12 & 13: cardinality sweep at τ = 3.
fn fig12_13(options: &Options, runtime: bool) {
    let which = if runtime {
        "Figure 12 (runtime vs cardinality, tau = 3)"
    } else {
        "Figure 13 (candidates vs cardinality, tau = 3)"
    };
    println!("\n== {which} ==\n");
    let tau = 3;
    for dataset in Dataset::ALL {
        let full = scaled(dataset.default_cardinality(), options.scale);
        // The paper sweeps five cardinalities up to the full size.
        let steps: Vec<usize> = (1..=5).map(|i| full * i / 5).collect();
        let trees = dataset.generate(full, options.seed);
        println!("-- {} (up to {} trees) --", dataset.name(), full);
        let mut rows = Vec::new();
        for &n in &steps {
            let slice = &trees[..n];
            for method in Method::ALL {
                let outcome = method.run(slice, tau);
                if runtime {
                    rows.push(vec![
                        format!("{n}"),
                        method.name().into(),
                        secs(outcome.stats.candidate_time),
                        secs(outcome.stats.verify_time),
                        secs(outcome.stats.total_time()),
                    ]);
                } else {
                    rows.push(candidate_row(format!("{n}"), method, &outcome.stats));
                }
            }
        }
        if runtime {
            println!(
                "{}",
                render_table(
                    &["trees", "method", "candgen(s)", "ted(s)", "total(s)"],
                    &rows
                )
            );
        } else {
            println!("{}", render_table(&candidate_header("trees"), &rows));
        }
    }
}

/// Figure 14: sensitivity to one synthetic parameter (runtime and
/// candidates in one table — the paper splits them into subfigure pairs).
fn fig14(options: &Options, param: &str) {
    let (values, label): (Vec<usize>, &str) = match param {
        "fanout" => (vec![2, 3, 4, 5, 6], "max fanout f (Fig. 14a/b)"),
        "depth" => (vec![4, 5, 6, 7, 8], "max depth d (Fig. 14c/d)"),
        "labels" => (vec![3, 5, 10, 20, 50], "labels l (Fig. 14e/f)"),
        "size" => (vec![40, 80, 120, 160, 200], "avg size t (Fig. 14g/h)"),
        other => {
            eprintln!("unknown --param {other}");
            std::process::exit(2);
        }
    };
    let tau = 3;
    let n = scaled(Dataset::Synthetic.default_cardinality(), options.scale);
    println!("\n== Figure 14: sensitivity to {label} ({n} trees, tau = {tau}) ==\n");
    let mut rows = Vec::new();
    for &value in &values {
        let mut params = SyntheticParams::default();
        match param {
            "fanout" => params.fanout = value,
            "depth" => params.depth = value,
            "labels" => params.labels = value as u32,
            _ => params.avg_size = value,
        }
        let trees = synthetic(n, &params, options.seed);
        for method in Method::ALL {
            let outcome = method.run(&trees, tau);
            rows.push(vec![
                format!("{value}"),
                method.name().into(),
                secs(outcome.stats.candidate_time),
                secs(outcome.stats.verify_time),
                secs(outcome.stats.total_time()),
                format!("{}", outcome.stats.candidates),
                format!("{}", outcome.stats.results),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                param,
                "method",
                "candgen(s)",
                "ted(s)",
                "total(s)",
                "candidates",
                "REL"
            ],
            &rows
        )
    );
}

/// Catalog snapshot save/reuse: freeze + save on the first run, load +
/// reuse on every later one, and cross-check the served join against a
/// fresh `sharded_rs_join` either way (nonzero exit on mismatch) — the
/// CI round-trip smoke.
fn catalog_cmd(options: &Options) {
    use tsj_catalog::Catalog;
    use tsj_shard::sharded_rs_join;

    let Some(path) = options.catalog.as_deref() else {
        eprintln!("the catalog command requires --catalog <path>");
        std::process::exit(2);
    };
    let tau = options.tau;
    let config = PartSjConfig::default();
    let shard_cfg = options.shard_config();
    let n = scaled(Dataset::Swissprot.default_cardinality(), options.scale) / 2;
    let left = Dataset::Swissprot.generate(n, options.seed);
    // Every fourth catalog tree: each probe finds at least itself, so the
    // cross-check below compares joins that route real matches.
    let probes: Vec<Tree> = left.iter().step_by(4).cloned().collect();
    println!(
        "\n== Catalog service ({} catalog trees, {} probes, tau = {tau}, {} shards, {} map) ==\n",
        left.len(),
        probes.len(),
        shard_cfg.shards,
        if shard_cfg.balanced_shards {
            "balanced"
        } else {
            "hash"
        }
    );

    let existed = std::path::Path::new(path).exists();
    let start = Instant::now();
    let catalog = if existed {
        let loaded = Catalog::load(path).unwrap_or_else(|e| {
            eprintln!("failed to load snapshot {path}: {e}");
            std::process::exit(1);
        });
        println!(
            "reuse: loaded snapshot {path} ({} shards, frozen tau {}) in {}s",
            loaded.shard_count(),
            loaded.tau(),
            secs(start.elapsed())
        );
        // The snapshot records neither seed nor scale, so this guard
        // can only catch gross mismatches; a same-size snapshot from a
        // different seed/scale surfaces below as a cross-check
        // MISMATCH — the hint there covers that case.
        if loaded.tau() < tau || loaded.len() != left.len() {
            eprintln!(
                "snapshot {path} was frozen for tau {} / {} trees, expected tau >= {tau} / {} \
                 trees — delete it and rerun",
                loaded.tau(),
                loaded.len(),
                left.len()
            );
            std::process::exit(1);
        }
        loaded
    } else {
        let frozen = Catalog::freeze(
            left.clone(),
            tsj_tree::LabelInterner::new(),
            tau,
            &config,
            &shard_cfg,
        );
        frozen.save(path).unwrap_or_else(|e| {
            eprintln!("failed to save snapshot {path}: {e}");
            std::process::exit(1);
        });
        println!(
            "save: froze and wrote snapshot {path} in {}s",
            secs(start.elapsed())
        );
        frozen
    };

    let mut rows = Vec::new();
    let mut failed = false;
    // Serve the frozen threshold plus one smaller per-query threshold.
    let mut thresholds = vec![tau.saturating_sub(1), tau];
    thresholds.dedup();
    for tau_q in thresholds {
        let start = Instant::now();
        let served = catalog
            .join(&probes, tau_q, &config, &shard_cfg)
            .expect("tau_q within the frozen ceiling");
        let served_time = start.elapsed();
        let start = Instant::now();
        let direct = sharded_rs_join(&left, &probes, tau_q, &config, &shard_cfg);
        let direct_time = start.elapsed();
        // Probe `j` is catalog tree `4j`: a join without that pair is
        // wrong whatever the direct join says.
        let finds_itself = (0..probes.len() as u32).all(|j| served.pairs.contains(&(4 * j, j)));
        let agree = served.pairs == direct.pairs && finds_itself;
        failed |= !agree;
        rows.push(vec![
            format!("{tau_q}"),
            format!("{}", served.stats.results),
            format!("{}", served.stats.candidates),
            secs(served_time),
            secs(direct_time),
            if agree {
                "ok".into()
            } else {
                "MISMATCH".into()
            },
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "tau",
                "pairs",
                "candidates",
                "served(s)",
                "rebuild(s)",
                "vs direct"
            ],
            &rows
        )
    );
    if failed {
        eprintln!(
            "catalog-served join disagrees with the direct join. If the snapshot at {path} \
             was recorded with a different --seed or --scale, it holds different trees than \
             this run generated — delete it and rerun; otherwise this is a real soundness bug."
        );
        std::process::exit(1);
    }
}

/// The observability smoke: exercise every instrumented layer, export
/// the merged metrics both ways, and self-validate the exports — exit
/// nonzero on any violation so CI can gate on it.
fn metrics_cmd(options: &Options) {
    use std::sync::Arc;
    use tsj_bench::compare::parse_json;
    use tsj_catalog::Catalog;
    use tsj_cluster::{Cluster, ClusterConfig, FaultPlan, VirtualClock};
    use tsj_obs::export::{to_json, to_prometheus, validate_prometheus};
    use tsj_obs::MetricsSnapshot;
    use tsj_shard::{sharded_rs_join, EvictionPolicy, ShardedStreamingJoin};

    let tau = 2u32;
    let config = PartSjConfig::default();
    let shard_cfg = ShardConfig {
        shards: options.shards.max(2),
        probe_threads: 1,
        verify_threads: 1,
        ..Default::default()
    };
    let n = scaled(48, options.scale);
    let trees = synthetic(
        n,
        &SyntheticParams {
            avg_size: 12,
            ..Default::default()
        },
        options.seed,
    );
    let probes = synthetic(
        n / 3,
        &SyntheticParams {
            avg_size: 12,
            ..Default::default()
        },
        options.seed + 1,
    );
    println!(
        "\n== Metrics smoke ({n} trees, {} probes, tau = {tau}, {} shards) ==\n",
        probes.len(),
        shard_cfg.shards
    );

    // One catalog and one faulty cluster, long-lived so counters
    // accumulate across passes.
    let catalog = Catalog::freeze(
        trees.clone(),
        tsj_tree::LabelInterner::new(),
        tau,
        &config,
        &shard_cfg,
    );
    let mut cluster_cfg = ClusterConfig::new(3, 2);
    cluster_cfg.faults = FaultPlan {
        seed: options.seed,
        delay_permille: 120,
        delay_ms: 4,
        timeout_permille: 60,
        transient_permille: 100,
        node_down_permille: 30,
        ..FaultPlan::none()
    };
    let mut cluster =
        Cluster::from_snapshot(catalog.to_bytes(), &cluster_cfg).unwrap_or_else(|e| {
            eprintln!("metrics smoke: snapshot assembly failed: {e}");
            std::process::exit(1);
        });
    cluster
        .router_mut()
        .set_clock(Arc::new(VirtualClock::new()));

    // Every instrumented layer once per pass: batch join, sharded R×S
    // join, catalog search, streaming with eviction, cluster
    // scatter/gather.
    let run_pass = |cluster: &mut Cluster| {
        let _ = partsj_join_with(&trees, tau, &config);
        let _ = sharded_rs_join(&trees, &probes, tau, &config, &shard_cfg);
        for probe in &probes {
            let _ = catalog
                .query(probe, tau, &config)
                .expect("tau within the frozen ceiling");
        }
        let mut stream = ShardedStreamingJoin::new(
            tau,
            config,
            ShardConfig {
                max_dead_fraction: 0.3,
                min_dead_postings: 1,
                ..shard_cfg
            },
            EvictionPolicy::SlidingCount(8),
        );
        for tree in trees.iter().chain(probes.iter()) {
            let _ = stream.insert(tree);
        }
        cluster
            .join(&probes, tau, &config)
            .expect("faults alone never error the join");
    };
    let merged = |cluster: &Cluster| {
        let mut snapshot: MetricsSnapshot = tsj_obs::global().snapshot();
        snapshot.merge(&cluster.router().metrics_snapshot());
        snapshot
    };

    run_pass(&mut cluster);
    let first = merged(&cluster);
    run_pass(&mut cluster);
    let second = merged(&cluster);

    let mut failures = Vec::new();

    // Counters only ever go up: everything the first pass recorded must
    // still be there, no lower, after the second.
    for (name, before) in &first.counters {
        match second.counter(name) {
            Some(after) if after >= *before => {}
            Some(after) => failures.push(format!(
                "counter {name} went backwards: {before} -> {after}"
            )),
            None => failures.push(format!("counter {name} vanished between passes")),
        }
    }

    // The workload must actually have reached every layer.
    for required in [
        "tsj_core_joins_total",
        "tsj_shard_trees_inserted_total",
        "tsj_shard_evictions_total",
        "tsj_catalog_freezes_total",
        "tsj_catalog_saves_total",
        "tsj_cluster_joins_total",
    ] {
        if second.counter(required).unwrap_or(0) == 0 {
            failures.push(format!("required series {required} is missing or zero"));
        }
    }

    let prometheus = to_prometheus(&second);
    match validate_prometheus(&prometheus) {
        Ok(report) => println!(
            "prometheus: {} families, {} series, {} samples — valid",
            report.families, report.series, report.samples
        ),
        Err(e) => failures.push(format!("prometheus output invalid: {e}")),
    }

    let json = to_json(&second);
    match parse_json(&json) {
        Ok(value) => {
            for section in ["counters", "gauges", "histograms"] {
                if value.get(section).is_none() {
                    failures.push(format!("json export lacks the {section:?} object"));
                }
            }
            println!(
                "json: {} bytes — parses and carries all three sections",
                json.len()
            );
        }
        Err(e) => failures.push(format!("json export does not parse: {e}")),
    }

    println!("\n--- prometheus ---\n{prometheus}");
    println!("--- json ---\n{json}\n");

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("metrics smoke FAILED: {failure}");
        }
        std::process::exit(1);
    }
    println!("metrics smoke: all checks passed");
}

/// §4.3 closing note: the max-min partitioning scheme vs random cuts.
fn ablation_partition(options: &Options) {
    println!("\n== Partitioning-scheme ablation (§4.3 closing note) ==\n");
    let mut rows = Vec::new();
    for dataset in Dataset::ALL {
        let n = scaled(dataset.default_cardinality(), options.scale) / 2;
        let trees = dataset.generate(n, options.seed);
        for tau in [1u32, 3] {
            let schemes = [
                ("max-min", PartitionScheme::MaxMin),
                ("random", PartitionScheme::Random { seed: options.seed }),
            ];
            for (name, scheme) in schemes {
                let config = PartSjConfig {
                    partitioning: scheme,
                    ..Default::default()
                };
                let start = Instant::now();
                let (outcome, detail) = partsj_join_detailed(&trees, tau, &config);
                rows.push(vec![
                    dataset.name().into(),
                    format!("{tau}"),
                    name.into(),
                    format!("{}", outcome.stats.candidates),
                    format!("{}", detail.match_attempts),
                    format!("{}", outcome.stats.results),
                    secs(start.elapsed()),
                ]);
            }
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "dataset",
                "tau",
                "scheme",
                "candidates",
                "match attempts",
                "REL",
                "total(s)"
            ],
            &rows
        )
    );
    println!("The paper reports 50%-300% improvement of the max-min scheme over random cuts.");
}

/// Window-policy ablation: the reproduction's §3.4 correction.
fn ablation_window(options: &Options) {
    println!("\n== Postorder-window ablation (reproduction correction of §3.4) ==\n");
    println!(
        "Safe   = general-postorder suffix keys, width tau (provably complete; default)\n\
         Tight  = paper's width tau - floor(k/2) in corrected coordinates\n\
         Paper  = literal absolute-postorder keys, paper width\n"
    );
    let mut rows = Vec::new();
    for dataset in Dataset::ALL {
        let n = scaled(dataset.default_cardinality(), options.scale) / 2;
        let trees = dataset.generate(n, options.seed);
        let tau = 3;
        let reference: JoinOutcome = partsj_join_with(&trees, tau, &PartSjConfig::default());
        for (name, window) in [
            ("Safe", WindowPolicy::Safe),
            ("Tight", WindowPolicy::Tight),
            ("Paper", WindowPolicy::PaperAbsolute),
        ] {
            let config = PartSjConfig {
                window,
                ..Default::default()
            };
            let start = Instant::now();
            let (outcome, detail) = partsj_join_detailed(&trees, tau, &config);
            let missed = reference
                .pairs
                .iter()
                .filter(|p| !outcome.pairs.contains(p))
                .count();
            rows.push(vec![
                dataset.name().into(),
                name.into(),
                format!("{}", outcome.stats.candidates),
                format!("{}", detail.index_registrations),
                format!("{}", outcome.stats.results),
                format!("{missed}"),
                secs(start.elapsed()),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "dataset",
                "window",
                "candidates",
                "registrations",
                "REL",
                "missed",
                "total(s)"
            ],
            &rows
        )
    );
}

/// Matching-semantics ablation: how much do the exact absence constraints
/// prune compared to prefix-embedding matching?
fn ablation_matching(options: &Options) {
    println!("\n== Matching-semantics ablation (Exact vs Embedding, tau = 3) ==\n");
    let mut rows = Vec::new();
    for dataset in Dataset::ALL {
        let n = scaled(dataset.default_cardinality(), options.scale) / 2;
        let trees = dataset.generate(n, options.seed);
        for (name, matching) in [
            ("exact", MatchSemantics::Exact),
            ("embedding", MatchSemantics::Embedding),
        ] {
            let config = PartSjConfig {
                matching,
                ..Default::default()
            };
            let start = Instant::now();
            let (outcome, detail) = partsj_join_detailed(&trees, 3, &config);
            rows.push(vec![
                dataset.name().into(),
                name.into(),
                format!("{}", outcome.stats.candidates),
                format!("{}", detail.match_attempts),
                format!("{}", outcome.stats.results),
                secs(start.elapsed()),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "dataset",
                "matching",
                "candidates",
                "match attempts",
                "REL",
                "total(s)"
            ],
            &rows
        )
    );
}

// Silence the unused-import lint for Tree, which only appears in
// signatures above under some feature selections.
#[allow(dead_code)]
fn _assert_types(_: &[Tree]) {}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(String, Options), String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn numeric_flags_parse_or_name_the_bad_value() {
        let (command, options) =
            parse("catalog --scale 0.5 --seed 7 --shards 2 --tau 4 --balanced-shards").unwrap();
        assert_eq!(command, "catalog");
        assert_eq!(
            (options.scale, options.seed, options.shards, options.tau),
            (0.5, 7, 2, 4)
        );
        // The catalog command freezes and joins with both shard flags.
        let shard_cfg = options.shard_config();
        assert_eq!((shard_cfg.shards, shard_cfg.balanced_shards), (2, true));
        for flag in ["--scale", "--seed", "--shards", "--tau"] {
            assert_eq!(
                parse(&format!("table1 {flag} abc")).unwrap_err(),
                format!("invalid value for {flag}: abc")
            );
        }
        // The shard flags reach only the commands that read them.
        assert_eq!(parse("metrics --shards 4").unwrap().1.shards, 4);
        assert_eq!(
            parse("fig12 --shards 4").unwrap_err(),
            "--shards applies to catalog and metrics only, not fig12"
        );
        assert_eq!(
            parse("metrics --balanced-shards").unwrap_err(),
            "--balanced-shards applies to catalog only, not metrics"
        );
        assert_eq!(
            parse("table1 --tau -1").unwrap_err(),
            "invalid value for --tau: -1"
        );
        assert_eq!(
            parse("table1 --tau").unwrap_err(),
            "missing value for --tau"
        );
        assert_eq!(
            parse("table1 --bogus").unwrap_err(),
            "unknown option --bogus"
        );
        assert_eq!(parse("").unwrap_err(), "missing command");
    }
}
