//! The `loadgen` binary: throughput and latency against a running
//! `catalogd` node set.
//!
//! ```bash
//! loadgen --addrs 127.0.0.1:7401,127.0.0.1:7402 \
//!     --clients 4 --joins 16 --probes 48 --tau 2
//! ```
//!
//! Each client thread opens its own [`ClusterClient`] (its own pooled
//! connections) and runs `--joins` scatter/gather joins of the same
//! probe batch, recording one latency sample per join. The report is
//! probes/sec across all clients plus p50/p90/p99 join latency.
//!
//! `--smoke` is the CI loopback mode: fewer iterations, every join
//! asserted `Complete` and cross-checked identical, each node's
//! `Metrics` frame pulled through `validate_prometheus`, and a
//! `Shutdown` frame sent to every node afterwards so the job is
//! self-contained. Exit code 0 means the node set served correctly.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Instant;
use tsj_catalogd::{interner_for, ClientConfig, ClusterClient};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("loadgen: {message}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("{name} wants a {}, got {raw:?}", std::any::type_name::<T>())),
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn run(args: &[String]) -> Result<(), String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let addrs_raw = flag(args, "--addrs")
        .ok_or("need --addrs HOST:PORT[,HOST:PORT...] (one per node, in node-id order)")?;
    let addrs: Vec<SocketAddr> = addrs_raw
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad address {s:?}")))
        .collect::<Result<_, _>>()?;
    let clients: usize = parse(args, "--clients", if smoke { 2 } else { 4 })?;
    let joins: usize = parse(args, "--joins", if smoke { 3 } else { 16 })?;
    let probe_count: usize = parse(args, "--probes", 48)?;
    // The default matches `catalogd freeze`'s seed: the generator is
    // prefix-stable, so the probe batch overlaps the catalog and the
    // smoke exercises real matches, not an empty join.
    let seed: u64 = parse(args, "--seed", 2015)?;

    // One handshake up front to learn the set's frozen tau (also a fast
    // failure if the set is unreachable or disagrees with itself).
    let mut probe_client = ClusterClient::connect(&addrs, ClientConfig::default())
        .map_err(|e| format!("connecting to the node set: {e}"))?;
    let frozen_tau = probe_client.router().tau();
    let tau: u32 = parse(args, "--tau", frozen_tau)?;
    println!(
        "loadgen: {} nodes, {} catalog trees, tau {tau} (frozen {frozen_tau}), \
         {clients} clients x {joins} joins x {probe_count} probes{}",
        addrs.len(),
        probe_client.tree_count(),
        if smoke { " [smoke]" } else { "" },
    );

    let probes = tsj_datagen::swissprot_like(probe_count, seed);
    let labels = interner_for(&probes);

    // The reference answer every join is held against (and the warmup).
    let reference = probe_client
        .join(&probes, &labels, tau)
        .map_err(|e| format!("warmup join: {e}"))?;
    if smoke && !reference.is_complete() {
        return Err(format!(
            "smoke wants a healthy set, got a degraded join: {:?}",
            reference.degraded
        ));
    }

    let started = Instant::now();
    let mut samples_us: Vec<u64> = Vec::with_capacity(clients * joins);
    let mut mismatches = 0usize;
    std::thread::scope(|scope| -> Result<(), String> {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addrs = &addrs;
                let probes = &probes;
                let labels = &labels;
                let reference = &reference;
                scope.spawn(move || -> Result<(Vec<u64>, usize), String> {
                    let mut client = ClusterClient::connect(addrs, ClientConfig::default())
                        .map_err(|e| format!("client {c}: {e}"))?;
                    let mut samples = Vec::with_capacity(joins);
                    let mut mismatches = 0;
                    for j in 0..joins {
                        let t0 = Instant::now();
                        let join = client
                            .join(probes, labels, tau)
                            .map_err(|e| format!("client {c} join {j}: {e}"))?;
                        samples.push(t0.elapsed().as_micros() as u64);
                        if join.outcome.pairs != reference.outcome.pairs
                            || join.outcome.stats.candidates != reference.outcome.stats.candidates
                        {
                            mismatches += 1;
                        }
                    }
                    Ok((samples, mismatches))
                })
            })
            .collect();
        for handle in handles {
            let (samples, client_mismatches) =
                handle.join().map_err(|_| "client thread panicked")??;
            samples_us.extend(samples);
            mismatches += client_mismatches;
        }
        Ok(())
    })?;
    let elapsed = started.elapsed().as_secs_f64();

    samples_us.sort_unstable();
    let total_joins = samples_us.len();
    let total_probes = total_joins * probe_count;
    println!(
        "loadgen: {total_joins} joins ({total_probes} probes) in {elapsed:.2}s — \
         {:.0} probes/sec, {:.1} joins/sec",
        total_probes as f64 / elapsed,
        total_joins as f64 / elapsed,
    );
    println!(
        "loadgen: join latency p50 {} us, p90 {} us, p99 {} us, max {} us; \
         {} pairs per join, {mismatches} mismatches",
        percentile(&samples_us, 0.50),
        percentile(&samples_us, 0.90),
        percentile(&samples_us, 0.99),
        samples_us.last().copied().unwrap_or(0),
        reference.outcome.pairs.len(),
    );
    if mismatches > 0 {
        return Err(format!(
            "{mismatches} of {total_joins} joins disagreed with the reference answer"
        ));
    }

    if smoke {
        // Every node's metrics export must parse as Prometheus text and
        // carry the serving series.
        for n in 0..addrs.len() {
            let text = probe_client
                .node_metrics_text(n)
                .map_err(|e| format!("metrics from node {n}: {e}"))?;
            let report = tsj_obs::export::validate_prometheus(&text)
                .map_err(|e| format!("node {n} metrics failed validation: {e}"))?;
            if !text.contains("tsj_catalogd_joins_served_total") {
                return Err(format!(
                    "node {n} metrics lack tsj_catalogd_joins_served_total"
                ));
            }
            println!(
                "loadgen: node {n} metrics ok ({} series, {} samples)",
                report.series, report.samples
            );
        }
        for n in 0..addrs.len() {
            probe_client
                .shutdown_node(n)
                .map_err(|e| format!("shutting down node {n}: {e}"))?;
        }
        println!("loadgen: smoke passed — all joins Complete and identical, nodes shut down");
    }
    Ok(())
}
