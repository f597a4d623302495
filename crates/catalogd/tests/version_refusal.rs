//! Peers of another protocol version are refused by version, not by a
//! bare checksum mismatch. Version 1 framed every frame with FNV-1a 64,
//! so its handshake frames fail this version's checksum; the decoder
//! reads their version field and both ends report the mismatch typed.

mod common;

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use tsj_catalogd::wire::{ErrorCode, Frame, WireError, PROTOCOL_VERSION};
use tsj_catalogd::{Catalogd, CatalogdError, ClientConfig, ClusterClient, ServerConfig};

/// FNV-1a 64, the version-1 envelope checksum — here only to forge the
/// frames an old peer sends.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A version-1 frame: length prefix, `body`, FNV-1a 64 of `body`.
fn v1_frame(body: &[u8]) -> Vec<u8> {
    let mut bytes = (body.len() as u32 + 8).to_le_bytes().to_vec();
    bytes.extend_from_slice(body);
    bytes.extend_from_slice(&fnv1a64(body).to_le_bytes());
    bytes
}

/// A version-1 `Hello` pinning no snapshot.
fn v1_hello() -> Vec<u8> {
    let mut body = vec![0x01];
    body.extend_from_slice(&1u16.to_le_bytes());
    body.extend_from_slice(&0u64.to_le_bytes());
    v1_frame(&body)
}

/// A version-1 `HelloAck` of node 0 of a one-node set holding its one
/// hash-routed shard.
fn v1_hello_ack() -> Vec<u8> {
    let mut body = vec![0x02];
    body.extend_from_slice(&1u16.to_le_bytes());
    body.extend_from_slice(&0x5EEDu64.to_le_bytes());
    for field in [0u32, 1, 1, 1, 1, 60] {
        // node, nodes, replication, tau, shard count, tree count
        body.extend_from_slice(&field.to_le_bytes());
    }
    for field in [1u32, 0, 1] {
        // owned shards [0], then a one-byte shard map
        body.extend_from_slice(&field.to_le_bytes());
    }
    body.push(0);
    v1_frame(&body)
}

#[test]
fn the_decoder_names_the_version_of_a_foreign_handshake() {
    for frame in [v1_hello(), v1_hello_ack()] {
        let err = Frame::decode(&frame).expect_err("a version-1 frame");
        assert_eq!(err, WireError::VersionMismatch { peer: 1 });
        assert!(err.to_string().contains("version 1"), "{err}");
    }
    // Any other frame that fails its checksum stays a checksum mismatch.
    let err = Frame::decode(&v1_frame(&[0x0A])).expect_err("a version-1 Health");
    assert!(matches!(err, WireError::ChecksumMismatch { .. }), "{err:?}");
    // So does a handshake of this version whose checksum is damaged.
    let mut hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        snapshot_hash: 0,
    }
    .encode();
    *hello.last_mut().unwrap() ^= 1;
    let err = Frame::decode(&hello).expect_err("a damaged Hello");
    assert!(matches!(err, WireError::ChecksumMismatch { .. }), "{err:?}");
}

#[test]
fn a_version_one_hello_gets_a_typed_error_and_the_server_serves_on() {
    let (snapshot, _, _) = common::freeze_demo(60, 1, 2, 9);
    let server = Catalogd::bind(snapshot, &ServerConfig::new(0, 1, 1), "127.0.0.1:0")
        .and_then(Catalogd::spawn)
        .expect("bind");

    let mut old = TcpStream::connect(server.addr()).expect("dial");
    old.write_all(&v1_hello()).expect("send");
    match Frame::read_from(&mut old).expect("a typed answer") {
        Frame::Error {
            code: ErrorCode::VersionMismatch,
            message,
        } => assert!(
            message.contains("version 2") && message.contains("client 1"),
            "{message}"
        ),
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    // The refusal is the connection's last frame.
    let mut rest = Vec::new();
    old.read_to_end(&mut rest).expect("the server closes");
    assert!(rest.is_empty(), "{} bytes after the refusal", rest.len());

    // Other connections are served as before.
    let mut current = TcpStream::connect(server.addr()).expect("dial");
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        snapshot_hash: 0,
    };
    current.write_all(&hello.encode()).expect("send");
    assert!(matches!(
        Frame::read_from(&mut current).expect("answer"),
        Frame::HelloAck { version: 2, .. }
    ));
    let client = ClusterClient::connect(&[server.addr()], ClientConfig::default())
        .expect("a version-2 client connects");
    assert_eq!(client.router().topology().nodes(), 1);
}

#[test]
fn a_client_facing_a_version_one_peer_reports_the_version() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // Read the client's Hello whole, then answer as version 1 would
        // answer a Hello it could read.
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).expect("length");
        let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut body).expect("body");
        stream.write_all(&v1_hello_ack()).expect("reply");
    });
    match ClusterClient::connect(&[addr], ClientConfig::default()) {
        Err(CatalogdError::Handshake { context }) => assert!(
            context.contains("version 1") && context.contains("client 2"),
            "{context}"
        ),
        Err(other) => panic!("expected a handshake error, got {other}"),
        Ok(_) => panic!("a version-1 peer was accepted"),
    }
    peer.join().expect("the fake peer");
}
