//! Corruption-path coverage: every way a snapshot can be damaged —
//! truncation, a foreign file, a future format version, flipped bits in
//! any section — must surface as a typed [`CatalogError`], never a panic
//! and never a silently wrong catalog. Plus a property test that
//! save → load round-trips arbitrary generated collections.

/// The crafted checksum-valid snapshots, shared with the cluster and
/// catalogd suites.
#[path = "../../cluster/tests/common/mod.rs"]
mod crafted;

use crafted::{crafted, Flaw};
use partsj::PartSjConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsj_catalog::{Catalog, CatalogError, SnapshotReader};
use tsj_datagen::synthetic_sized;
use tsj_shard::ShardConfig;
use tsj_tree::{LabelInterner, Tree};

fn sample_catalog() -> Catalog {
    let trees = synthetic_sized(12, 14, 404);
    Catalog::freeze(
        trees,
        LabelInterner::new(),
        1,
        &PartSjConfig::default(),
        &ShardConfig::with_shards(2),
    )
}

#[test]
fn truncated_snapshots_fail_with_typed_errors() {
    let bytes = sample_catalog().to_bytes();
    // Cut the file at a spread of lengths covering the header, the
    // directory and every section: each must fail loudly and typedly.
    for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
        match Catalog::from_bytes(bytes[..cut].to_vec()) {
            Ok(_) => panic!("truncation at {cut} of {} loaded", bytes.len()),
            Err(
                CatalogError::Truncated { .. }
                | CatalogError::BadMagic { .. }
                | CatalogError::ChecksumMismatch { .. }
                | CatalogError::Corrupt { .. },
            ) => {}
            Err(other) => panic!("unexpected error at cut {cut}: {other}"),
        }
    }
}

#[test]
fn bad_magic_is_reported_as_foreign_file() {
    let mut bytes = sample_catalog().to_bytes();
    bytes[..8].copy_from_slice(b"NOTACATL");
    assert!(matches!(
        Catalog::from_bytes(bytes),
        Err(CatalogError::BadMagic { found }) if &found == b"NOTACATL"
    ));
}

#[test]
fn wrong_version_is_reported_with_both_versions() {
    let mut bytes = sample_catalog().to_bytes();
    bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
    assert!(matches!(
        Catalog::from_bytes(bytes),
        Err(CatalogError::UnsupportedVersion {
            found: 7,
            supported: 3
        })
    ));
}

#[test]
fn version_one_snapshots_are_rejected_cleanly() {
    // A pre-shard-map (version 1) file must be refused outright — its
    // section numbering differs, so decoding it as v2 would misread the
    // first shard as the shard map.
    let mut bytes = sample_catalog().to_bytes();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(
        Catalog::from_bytes(bytes),
        Err(CatalogError::UnsupportedVersion {
            found: 1,
            supported: 3
        })
    ));
}

#[test]
fn version_two_snapshots_are_rejected_cleanly() {
    // A version-2 file has this layout but FNV-1a section checksums:
    // refused by its header, before any section is hashed and misread
    // as bit rot.
    let mut bytes = sample_catalog().to_bytes();
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert!(matches!(
        Catalog::from_bytes(bytes),
        Err(CatalogError::UnsupportedVersion {
            found: 2,
            supported: 3
        })
    ));
}

#[test]
fn checksum_mismatch_names_the_damaged_section() {
    let catalog = sample_catalog();
    let bytes = catalog.to_bytes();
    let reader = SnapshotReader::from_bytes(bytes.clone()).unwrap();
    assert_eq!(reader.shard_count(), 2);
    // Flip the final byte (inside the last shard section).
    let mut rotten = bytes.clone();
    let last = rotten.len() - 1;
    rotten[last] ^= 0x01;
    match Catalog::from_bytes(rotten) {
        Err(CatalogError::ChecksumMismatch { section }) => {
            assert!(section.starts_with("shard"), "section was {section}");
        }
        other => panic!("expected a checksum mismatch, got {other:?}"),
    }
}

/// Flip every byte of a small snapshot, one at a time: loading must
/// either fail with a typed error or succeed — never panic. (A flip can
/// cancel out in unchecked header padding, but any flip inside a
/// checksummed section must be caught.)
#[test]
fn single_bit_flips_never_panic() {
    let bytes = sample_catalog().to_bytes();
    let mut undetected_section_damage = 0u32;
    // Section payloads start after the fixed header (25 bytes) and the
    // directory (24 bytes × 5 sections: labels, trees, shard map, two
    // shards).
    let sections_start = 25 + 24 * 5;
    for pos in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 0x80;
        if let Ok(catalog) = Catalog::from_bytes(flipped) {
            // Loading succeeded: the flip must not have hit section
            // payload (those are checksummed).
            if pos >= sections_start {
                undetected_section_damage += 1;
            }
            drop(catalog);
        }
    }
    assert_eq!(
        undetected_section_damage, 0,
        "checksums must catch every payload flip"
    );
}

/// Damage no checksum sees: sections that are each intact but contradict
/// one another (tree store one tree short, shard sections rotated, one
/// shard frozen at another τ) must fail the restore's cross-checks with
/// the typed `Corrupt` — not load and panic, or answer short, later.
#[test]
fn checksum_valid_but_inconsistent_snapshots_are_corrupt() {
    let catalog = crafted::freeze(&synthetic_sized(24, 16, 71), 1, 8);
    for flaw in Flaw::ALL {
        match Catalog::from_bytes(crafted(&catalog, flaw)) {
            Err(CatalogError::Corrupt { .. }) => {}
            other => panic!("{flaw:?}: expected Corrupt, got {other:?}"),
        }
    }
}

fn random_collection(seed: u64) -> Vec<Tree> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1usize..25);
    let avg_size = rng.gen_range(2usize..30);
    synthetic_sized(n, avg_size, rng.gen())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary collections survive the full save → load round trip:
    /// trees, labels, thresholds and join behavior all intact.
    #[test]
    fn save_load_round_trips_arbitrary_collections(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let left = random_collection(rng.gen());
        let right = random_collection(rng.gen());
        let tau = rng.gen_range(0u32..4);
        let shards = rng.gen_range(1usize..5);
        let config = PartSjConfig::default();
        let shard_cfg = ShardConfig {
            shards,
            probe_threads: 1,
            verify_threads: 1,
            ..Default::default()
        };
        let catalog = Catalog::freeze(
            left.clone(),
            LabelInterner::new(),
            tau,
            &config,
            &shard_cfg,
        );
        let bytes = catalog.to_bytes();
        let loaded = Catalog::from_bytes(bytes.clone()).expect("round trip");
        prop_assert_eq!(loaded.tau(), tau);
        prop_assert_eq!(loaded.len(), left.len());
        prop_assert_eq!(loaded.shard_count(), shards);
        for (a, b) in left.iter().zip(loaded.trees()) {
            prop_assert!(a.structurally_eq(b));
        }
        // Deterministic bytes: re-serializing the loaded catalog is a
        // fixpoint.
        prop_assert_eq!(loaded.to_bytes(), bytes);
        // And the loaded catalog serves the same join as the fresh one.
        let a = catalog.join(&right, tau, &config, &shard_cfg).unwrap();
        let b = loaded.join(&right, tau, &config, &shard_cfg).unwrap();
        prop_assert_eq!(a.pairs, b.pairs);
        prop_assert_eq!(a.stats.work(), b.stats.work());
    }
}
