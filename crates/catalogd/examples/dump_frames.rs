fn hex(b: &[u8]) -> String {
    b.iter()
        .map(|x| format!("{x:02x}"))
        .collect::<Vec<_>>()
        .join(" ")
}
fn main() {
    use tsj_catalogd::wire::*;
    let frames: Vec<(&str, Frame)> = vec![
        (
            "Hello",
            Frame::Hello {
                version: PROTOCOL_VERSION,
                snapshot_hash: 0x53925fe9fe30c941,
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
    ];
    for (name, f) in frames {
        let b = f.encode();
        println!("{name} ({} bytes):\n  {}", b.len(), hex(&b));
    }
}
