//! Wire-codec robustness: arbitrary corruption of valid frames (and
//! outright byte soup) must decode to a typed [`WireError`] or a valid
//! frame — never a panic, never an uncontrolled allocation. This is the
//! wire twin of the snapshot corruption suite.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsj_catalog::format::checksum;
use tsj_catalogd::wire::{encode_probes, ErrorCode, Frame, WireError, PROTOCOL_VERSION};
use tsj_ted::{JoinStats, StageCount};
use tsj_tree::{parse_bracket, LabelInterner};

/// One instance of every frame type, with non-trivial payloads.
fn sample_frames() -> Vec<Frame> {
    let mut labels = LabelInterner::new();
    let probes = vec![
        parse_bracket("{a{b}{c{d}}}", &mut labels).unwrap(),
        parse_bracket("{x{y}{y}{z}}", &mut labels).unwrap(),
    ];
    let batch = encode_probes(&probes, &labels).unwrap();
    vec![
        Frame::Hello {
            version: PROTOCOL_VERSION,
            snapshot_hash: 0x1234_5678_9ABC_DEF0,
        },
        Frame::HelloAck {
            version: PROTOCOL_VERSION,
            snapshot_hash: 42,
            node: 1,
            nodes: 4,
            replication: 2,
            tau: 3,
            shard_count: 8,
            tree_count: 500,
            owned_shards: vec![1, 2, 5, 6],
            shard_map: vec![0, 1, 2, 3, 4, 5, 6, 7],
        },
        Frame::Probe {
            batch: batch.clone(),
        },
        Frame::ProbeBatch(batch),
        Frame::ProbeAck { count: 2 },
        Frame::JoinShard {
            probe: 0,
            shard: 5,
            tau: 2,
            classes: vec![10, 11, 12, 13],
        },
        Frame::JoinShardResp {
            probe: 0,
            matches: vec![3, 14, 159],
            stats: JoinStats {
                pairs_examined: 100,
                candidates: 40,
                results: 3,
                ted_calls: 7,
                prefilter_skips: 33,
                early_accepts: 1,
                candidate_time: std::time::Duration::from_nanos(1_000),
                verify_time: std::time::Duration::from_nanos(2_000),
                stage_counts: vec![
                    StageCount {
                        stage: "label-hist",
                        count: 40,
                    },
                    StageCount {
                        stage: "traversal-sed",
                        count: 12,
                    },
                ],
            },
        },
        Frame::Metrics,
        Frame::MetricsResp {
            text: "# TYPE tsj_catalogd_joins_served_total counter\n\
                   tsj_catalogd_joins_served_total{node=\"0\"} 17\n"
                .into(),
        },
        Frame::Health,
        Frame::HealthAck {
            node: 2,
            owned_shards: 4,
        },
        Frame::Shutdown,
        Frame::ShutdownAck,
        Frame::Error {
            code: ErrorCode::ShardNotOwned,
            message: "node 1 does not own shard 7".into(),
        },
    ]
}

/// Exercise the error's public surface; any panic here fails the test.
fn touch(e: &WireError) {
    let _ = e.to_string();
    let _ = e.desyncs_stream();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_frames_decode_to_typed_errors(
        frame_idx in 0usize..14,
        flips in 1usize..9,
        seed in any::<u64>(),
    ) {
        let frames = sample_frames();
        let mut bytes = frames[frame_idx % frames.len()].encode();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..flips {
            let pos = rng.gen_range(0..bytes.len());
            bytes[pos] ^= rng.gen_range(1u8..=255);
        }
        // Decoding must terminate in a frame or a typed error — the
        // property is "never a panic", enforced by running at all.
        match Frame::decode(&bytes) {
            Ok((frame, consumed)) => {
                // A surviving decode must account for its bytes and
                // re-encode without panicking.
                prop_assert!(consumed <= bytes.len());
                let _ = frame.encode();
            }
            Err(e) => touch(&e),
        }
    }

    #[test]
    fn byte_soup_decodes_to_typed_errors(len in 0usize..96, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        match Frame::decode(&bytes) {
            Ok((frame, consumed)) => {
                prop_assert!(consumed <= bytes.len());
                let _ = frame.encode();
            }
            Err(e) => touch(&e),
        }
    }

    #[test]
    fn corrupted_length_prefix_never_allocates_unbounded(
        frame_idx in 0usize..14,
        fake_len in any::<u32>(),
    ) {
        let frames = sample_frames();
        let mut bytes = frames[frame_idx % frames.len()].encode();
        bytes[..4].copy_from_slice(&fake_len.to_le_bytes());
        // Whatever the prefix claims, decode must finish promptly with a
        // typed result; the alloc guard rejects large claims before
        // reserving memory.
        if let Err(e) = Frame::decode(&bytes) {
            touch(&e);
        }
    }
}

/// Every strict prefix of a valid frame is an error, and every cut point
/// is typed — the stream-reassembly contract `read_from` relies on.
#[test]
fn truncation_at_every_boundary_is_typed() {
    for frame in sample_frames() {
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            match Frame::decode(&bytes[..cut]) {
                Ok(_) => panic!("strict prefix of {frame:?} decoded at cut {cut}"),
                Err(e) => touch(&e),
            }
        }
        let (decoded, consumed) = Frame::decode(&bytes).expect("whole frame decodes");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, frame);
    }
}

/// A peer cannot poison stage-name decoding: a well-formed
/// `JoinShardResp` naming a stage outside the closed set is `Malformed`
/// (stream still in sync), and — there being no decode-side name table
/// to fill — 300 distinct junk names later the real names still decode.
#[test]
fn unknown_stage_names_are_malformed_and_poison_nothing() {
    let resp = sample_frames()
        .into_iter()
        .find(|frame| matches!(frame, Frame::JoinShardResp { .. }))
        .expect("sample JoinShardResp");
    let honest = resp.encode();
    let name_at = honest
        .windows(10)
        .position(|w| w == b"label-hist")
        .expect("the sample names label-hist");
    for i in 0..300 {
        // Same length as the name it overwrites; checksum redone.
        let mut bytes = honest.clone();
        bytes[name_at..name_at + 10].copy_from_slice(format!("junk-{i:05}").as_bytes());
        let body_end = bytes.len() - 8;
        let sum = checksum(&bytes[4..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        let err = Frame::decode(&bytes).expect_err("junk stage name");
        assert!(matches!(err, WireError::Malformed { .. }), "{i}: {err:?}");
        assert!(!err.desyncs_stream(), "{i}: the frame was consumed whole");
    }
    assert_eq!(Frame::decode(&honest).expect("decodes").0, resp);
}

/// The server side of a well-formed `JoinShard`: random shards (one past
/// the snapshot's too) and random size-class lists, foreign classes
/// among them, sent to a live node. A request is served exactly when the
/// node owns its shard and the shard map gives every class to it; any
/// other is a typed error on a connection that keeps serving.
#[test]
fn join_shard_with_random_shards_and_classes_is_served_or_refused_typed() {
    use std::io::Write;
    use tsj_catalogd::{Catalogd, ServerConfig};

    const SHARDS: u32 = 4;
    let (snapshot, trees, labels) = common::freeze_demo(60, 1, SHARDS as usize, 33);
    let map = tsj_catalog::SnapshotReader::from_bytes(snapshot.clone())
        .and_then(|reader| reader.shard_map())
        .expect("the demo snapshot parses");
    // Node 1 of 2 at R = 1 owns the odd shards.
    let server = Catalogd::bind(snapshot, &ServerConfig::new(1, 2, 1), "127.0.0.1:0")
        .and_then(Catalogd::spawn)
        .expect("bind");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("dial");
    let mut call = |frame: Frame| {
        stream.write_all(&frame.encode()).expect("send");
        Frame::read_from(&mut stream).expect("the connection keeps serving")
    };
    let batch = encode_probes(&trees[..4], &labels).expect("batch");
    assert_eq!(call(Frame::ProbeBatch(batch)), Frame::ProbeAck { count: 4 });

    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut outcomes = [0usize; 3];
    for round in 0..400 {
        let shard = rng.gen_range(0..=SHARDS);
        let len = rng.gen_range(0..4);
        let classes: Vec<u32> = (0..len).map(|_| rng.gen_range(1..40)).collect();
        let owned = shard % 2 == 1 && shard < SHARDS;
        let routed = classes
            .iter()
            .all(|&c| map.shard_of(c, SHARDS as usize) == shard as usize);
        let reply = call(Frame::JoinShard {
            probe: rng.gen_range(0..4),
            shard,
            tau: 1,
            classes,
        });
        let slot = match reply {
            Frame::JoinShardResp { .. } if owned && routed => 0,
            Frame::Error {
                code: ErrorCode::ShardNotOwned,
                ..
            } if !owned => 1,
            Frame::Error {
                code: ErrorCode::BadRequest,
                ..
            } if owned && !routed => 2,
            other => panic!("round {round}: shard {shard}: {other:?}"),
        };
        outcomes[slot] += 1;
    }
    assert!(outcomes.iter().all(|&n| n > 0), "{outcomes:?}");
}
