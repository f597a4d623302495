//! The `catalogd` binary: freeze a demo snapshot, or serve one node of
//! a frozen snapshot over TCP.
//!
//! ```bash
//! # Freeze a 300-tree demo catalog at tau = 2 into 8 shards:
//! catalogd freeze --out /tmp/demo.snap --trees 300 --tau 2 --shards 8
//!
//! # Serve node 0 of a 2-node set at replication 2:
//! catalogd serve --snapshot /tmp/demo.snap --node 0 --nodes 2 \
//!     --replication 2 --addr 127.0.0.1:7401
//! ```
//!
//! `serve` prints `catalogd: node N serving on ADDR ...` once the
//! listener is bound — scripts (the CI smoke job, the demo example) wait
//! for that line, then connect. The process exits when a client sends
//! the `Shutdown` frame; there is no signal handling.

use partsj::PartSjConfig;
use std::process::ExitCode;
use tsj_catalog::{Catalog, SnapshotReader};
use tsj_catalogd::{interner_for, Catalogd, ServerConfig};
use tsj_shard::ShardConfig;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("freeze") => freeze(&args[1..]),
        Some("serve") => serve(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("catalogd: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  catalogd freeze --out PATH [--trees N] [--tau T] [--shards S] [--seed SEED]
  catalogd serve --snapshot PATH --node N --nodes M [--replication R] [--addr HOST:PORT]";

/// Looks up `--flag value` in `args`.
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

/// Generates a SwissProt-like demo collection, freezes it, and writes
/// the snapshot bytes.
fn freeze(args: &[String]) -> Result<(), String> {
    let out = flag(args, "--out").ok_or("freeze needs --out PATH")?;
    let trees: usize = parse(args, "--trees", 300)?;
    let tau: u32 = parse(args, "--tau", 2)?;
    let shards: usize = parse(args, "--shards", 8)?;
    let seed: u64 = parse(args, "--seed", 2015)?;

    let collection = tsj_datagen::swissprot_like(trees, seed);
    let labels = interner_for(&collection);
    let catalog = Catalog::freeze(
        collection,
        labels,
        tau,
        &PartSjConfig::default(),
        &ShardConfig::with_shards(shards),
    );
    let bytes = catalog.to_bytes();
    std::fs::write(out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    let len = bytes.len();
    let hash = SnapshotReader::from_bytes(bytes)
        .map_err(|e| e.to_string())?
        .digest();
    println!(
        "catalogd: froze {} trees (tau = {tau}, {shards} shards, seed {seed}) \
         into {out} — {len} bytes, snapshot {hash:#018x}",
        catalog.len(),
    );
    Ok(())
}

/// Restores one node's shards from the snapshot and serves until a
/// `Shutdown` frame arrives.
fn serve(args: &[String]) -> Result<(), String> {
    let path = flag(args, "--snapshot").ok_or("serve needs --snapshot PATH")?;
    let node: usize = parse(args, "--node", usize::MAX)?;
    let nodes: usize = parse(args, "--nodes", 0)?;
    if node == usize::MAX || nodes == 0 {
        return Err("serve needs --node N and --nodes M".into());
    }
    let replication: usize = parse(args, "--replication", 1)?;
    let addr = flag(args, "--addr").unwrap_or("127.0.0.1:0");

    let snapshot = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let server = Catalogd::bind(snapshot, &ServerConfig::new(node, nodes, replication), addr)
        .map_err(|e| e.to_string())?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    println!("catalogd: node {node} serving on {bound} ({nodes} nodes, replication {replication})");
    server.run().map_err(|e| e.to_string())
}
