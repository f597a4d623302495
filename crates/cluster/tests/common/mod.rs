//! Shared fixtures for the cluster integration suites — and, through
//! `#[path]`, for the snapshot-consistency rows of the catalog and
//! catalogd suites, so the crafted snapshots exist once.
//!
//! Each integration test binary compiles its own copy and uses a
//! subset, so unused-item warnings are expected noise here.
#![allow(dead_code)]

use partsj::PartSjConfig;
use tsj_catalog::snapshot::{
    assemble, encode_labels, encode_shard, encode_shard_map, encode_trees,
};
use tsj_catalog::Catalog;
use tsj_shard::ShardConfig;
use tsj_ted::JoinOutcome;
use tsj_tree::{LabelInterner, Tree};

/// The injector seed pinned through `TSJ_FAULT_SEED` (decimal or
/// `0x`-prefixed hex), if set — how CI replays the fault suites under a
/// fixed set of seeds.
pub fn env_fault_seed() -> Option<u64> {
    let s = std::env::var("TSJ_FAULT_SEED").ok()?;
    let s = s.trim();
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Single-threaded shard settings: the reference every suite compares
/// against runs inline.
fn inline(shards: usize) -> ShardConfig {
    ShardConfig {
        shards,
        probe_threads: 1,
        verify_threads: 1,
        ..Default::default()
    }
}

/// Freezes `left` at `tau` over `shards` shards.
pub fn freeze(left: &[Tree], tau: u32, shards: usize) -> Catalog {
    let labels = LabelInterner::new();
    let config = PartSjConfig::default();
    Catalog::freeze(left.to_vec(), labels, tau, &config, &inline(shards))
}

/// The single-node join every cluster answer must be bit-identical to.
pub fn reference(catalog: &Catalog, probes: &[Tree], tau: u32) -> JoinOutcome {
    let shard_cfg = inline(catalog.shard_count());
    catalog
        .join(probes, tau, &PartSjConfig::default(), &shard_cfg)
        .unwrap()
}

/// One way a snapshot can pass every checksum and still contradict
/// itself.
#[derive(Debug, Clone, Copy)]
pub enum Flaw {
    /// The tree store lacks the last tree (which must be ≥ δ, so one of
    /// its postings dangles).
    ShortTreeStore,
    /// The shard sections are rotated by one: each holds size classes
    /// the shard map gives to its neighbour.
    RotatedShards,
    /// Shard 0's section comes from an index frozen at another τ than
    /// the header's.
    ForeignTau,
}

impl Flaw {
    pub const ALL: [Flaw; 3] = [Flaw::ShortTreeStore, Flaw::RotatedShards, Flaw::ForeignTau];
}

/// A checksum-valid snapshot assembled from `catalog`'s own sections
/// with `flaw` worked in.
pub fn crafted(catalog: &Catalog, flaw: Flaw) -> Vec<u8> {
    let index = catalog.index();
    let shard = |c: &Catalog, s| encode_shard(&c.index().shard_index(s).dump());
    let mut trees = catalog.trees();
    let mut sections = vec![
        encode_labels(catalog.labels()),
        encode_trees(trees),
        encode_shard_map(index.shard_map()),
    ];
    sections.extend((0..index.shard_count()).map(|s| shard(catalog, s)));
    match flaw {
        Flaw::ShortTreeStore => {
            let (last, rest) = trees.split_last().expect("a non-empty catalog");
            assert!(last.len() > 2 * catalog.tau() as usize, "last tree is ≥ δ");
            trees = rest;
            sections[1] = encode_trees(trees);
        }
        Flaw::RotatedShards => sections[3..].rotate_left(1),
        Flaw::ForeignTau => {
            let other = freeze(trees, catalog.tau() + 1, index.shard_count());
            sections[3] = shard(&other, 0);
        }
    }
    assemble(index.tau(), index.window(), trees.len() as u32, &sections)
}
