//! `docs/PROTOCOL.md` lockstep: every example frame documented in the
//! spec must encode byte-for-byte to the documented bytes, and the
//! documented bytes must decode back to the documented frame. Change
//! the codec and this test fails until the spec is updated (regenerate
//! the examples with `cargo run -p tsj-catalogd --example dump_frames`).

use tsj_catalogd::wire::{ErrorCode, Frame, ProbeBatch, WireTree};

const SPEC: &str = include_str!("../../../docs/PROTOCOL.md");

/// Extracts the `bytes(Name) = aa bb ...` line for `name` from the spec.
fn documented_bytes(name: &str) -> Vec<u8> {
    let marker = format!("bytes({name}) = ");
    let line = SPEC
        .lines()
        .find_map(|l| l.trim().strip_prefix(&marker))
        .unwrap_or_else(|| panic!("docs/PROTOCOL.md documents no example for {name}"));
    line.split_whitespace()
        .map(|h| u8::from_str_radix(h, 16).unwrap_or_else(|_| panic!("bad hex {h:?} for {name}")))
        .collect()
}

/// The canonical frames the spec's examples describe, in prose.
fn documented_frames() -> Vec<(&'static str, Frame)> {
    vec![
        (
            "Hello",
            Frame::Hello {
                version: 2,
                snapshot_hash: 0x53925FE9FE30C941,
            },
        ),
        ("Health", Frame::Health),
        (
            "HealthAck",
            Frame::HealthAck {
                node: 1,
                owned_shards: 4,
            },
        ),
        ("ProbeAck", Frame::ProbeAck { count: 2 }),
        (
            "JoinShard",
            Frame::JoinShard {
                probe: 0,
                shard: 3,
                tau: 2,
                classes: vec![60, 61],
            },
        ),
        ("Shutdown", Frame::Shutdown),
        ("ShutdownAck", Frame::ShutdownAck),
        (
            "Error",
            Frame::Error {
                code: ErrorCode::TauExceedsFrozen,
                message: "tau 9 > frozen 3".into(),
            },
        ),
        (
            "ProbeBatch",
            Frame::ProbeBatch(ProbeBatch {
                labels: vec!["item".into(), "kbd".into()],
                trees: vec![WireTree {
                    nodes: vec![(0, 0), (1, 1)],
                }],
            }),
        ),
    ]
}

#[test]
fn documented_examples_encode_byte_for_byte() {
    for (name, frame) in documented_frames() {
        let documented = documented_bytes(name);
        let encoded = frame.encode();
        assert_eq!(
            encoded, documented,
            "{name}: codec output diverged from docs/PROTOCOL.md — \
             update the spec's example (see dump_frames) or fix the codec"
        );
    }
}

#[test]
fn documented_examples_decode_back() {
    for (name, frame) in documented_frames() {
        let documented = documented_bytes(name);
        let (decoded, consumed) = Frame::decode(&documented)
            .unwrap_or_else(|e| panic!("{name}: documented bytes no longer decode: {e}"));
        assert_eq!(consumed, documented.len(), "{name}: trailing bytes");
        assert_eq!(
            decoded, frame,
            "{name}: decoded frame diverged from the spec"
        );
    }
}

/// The spec's headline constants must match the build.
#[test]
fn spec_constants_match_the_build() {
    assert!(
        SPEC.contains("(version 2)"),
        "spec version header vs PROTOCOL_VERSION"
    );
    assert_eq!(tsj_catalogd::wire::PROTOCOL_VERSION, 2);
    assert!(SPEC.contains("16 MiB"), "spec documents the frame cap");
    assert_eq!(tsj_catalogd::wire::MAX_FRAME_LEN, 16 * 1024 * 1024);
}
