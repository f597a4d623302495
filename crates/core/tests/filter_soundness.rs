//! Filter-chain soundness: every verification-chain configuration —
//! each stage toggled on/off, across thresholds and window policies —
//! must yield result pairs identical to filter-free exact-TED
//! verification. Lower-bound stages may only *reject* pairs whose TED
//! provably exceeds `τ`; upper-bound stages may only *admit* pairs with a
//! valid edit script of cost ≤ `τ`; so the chain never changes the
//! answer, only where candidates die.

use partsj::{partsj_join_rs, partsj_join_with, PartSjConfig, VerifyConfig, WindowPolicy};
use tsj_datagen::swissprot_like;

/// Every subset of the four stages.
fn all_verify_configs() -> Vec<VerifyConfig> {
    (0u32..16)
        .map(|mask| VerifyConfig {
            size: mask & 1 != 0,
            shape_accept: mask & 2 != 0,
            histogram: mask & 4 != 0,
            traversal: mask & 8 != 0,
        })
        .collect()
}

#[test]
fn every_chain_config_matches_filter_free_join() {
    // swissprot_like is mother-tree based: lots of near-duplicate
    // (rename-only) pairs, so the shape-accept stage actually fires.
    let trees = swissprot_like(70, 99);
    for window in [
        WindowPolicy::Safe,
        WindowPolicy::Tight,
        WindowPolicy::PaperAbsolute,
    ] {
        for tau in [0u32, 1, 3] {
            let reference = partsj_join_with(
                &trees,
                tau,
                &PartSjConfig {
                    window,
                    verify: VerifyConfig::NONE,
                    ..Default::default()
                },
            );
            for verify in all_verify_configs() {
                let config = PartSjConfig {
                    window,
                    verify,
                    ..Default::default()
                };
                let outcome = partsj_join_with(&trees, tau, &config);
                assert_eq!(
                    outcome.pairs, reference.pairs,
                    "window = {window:?}, tau = {tau}, verify = {verify:?}"
                );
                // Conservation: every candidate is resolved exactly once.
                assert_eq!(
                    outcome.stats.ted_calls
                        + outcome.stats.prefilter_skips
                        + outcome.stats.early_accepts,
                    outcome.stats.candidates,
                    "window = {window:?}, tau = {tau}, verify = {verify:?}"
                );
            }
        }
    }
}

#[test]
fn full_chain_reduces_ted_calls_on_near_duplicates() {
    let trees = swissprot_like(80, 7);
    for tau in [1u32, 3] {
        let bare = partsj_join_with(
            &trees,
            tau,
            &PartSjConfig {
                verify: VerifyConfig::NONE,
                ..Default::default()
            },
        );
        let full = partsj_join_with(&trees, tau, &PartSjConfig::default());
        assert_eq!(full.pairs, bare.pairs);
        assert!(
            full.stats.ted_calls < bare.stats.ted_calls,
            "tau = {tau}: chain must cut TED calls ({} vs {})",
            full.stats.ted_calls,
            bare.stats.ted_calls
        );
        assert!(full.stats.early_accepts > 0, "tau = {tau}");
        assert_eq!(full.stats.stage_counts.len(), 4);
    }
}

#[test]
fn rs_join_is_sound_for_every_chain_config() {
    // Two halves of one near-duplicate collection: the clusters straddle
    // them, so every row has pairs to find.
    let trees = swissprot_like(80, 4);
    let (left, right) = trees.split_at(40);
    let tau = 2;
    let reference = partsj_join_rs(
        left,
        right,
        tau,
        &PartSjConfig {
            verify: VerifyConfig::NONE,
            ..Default::default()
        },
    );
    for verify in all_verify_configs() {
        let config = PartSjConfig {
            verify,
            ..Default::default()
        };
        let outcome = partsj_join_rs(left, right, tau, &config);
        assert!(!outcome.pairs.is_empty(), "verify = {verify:?}");
        assert_eq!(outcome.pairs, reference.pairs, "verify = {verify:?}");
        if verify == VerifyConfig::ALL {
            assert!(!outcome.stats.work().stages.is_empty());
        }
    }
}
