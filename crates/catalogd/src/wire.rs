//! The `catalogd` wire codec: length-prefixed, checksummed binary frames
//! over TCP.
//!
//! Every frame has the same envelope (all scalars little-endian):
//!
//! ```text
//! ┌──────────┬─────────┬───────────────┬──────────────┐
//! │ len: u32 │ type:u8 │ payload bytes │ checksum:u64 │
//! └──────────┴─────────┴───────────────┴──────────────┘
//!             ╰──────────── len bytes ───────────────╯
//! ```
//!
//! `len` counts the type byte, the payload and the trailing checksum
//! (so the smallest legal frame has `len == 9`); `checksum` is
//! [`tsj_catalog::format::checksum`] over the type byte followed by the
//! payload — the same integrity check the snapshot sections use. A
//! frame longer than [`MAX_FRAME_LEN`] is rejected *before* any
//! allocation, exactly like the snapshot reader's alloc guard. A
//! handshake frame of another protocol version fails that checksum
//! (version 1 framed with FNV-1a), so a `Hello` or `HelloAck` whose
//! checksum fails and whose version field names another version decodes
//! to [`WireError::VersionMismatch`], not to a bare checksum mismatch.
//!
//! Decoding follows the PR 5 corruption-suite discipline: malformed,
//! truncated or oversized bytes yield a typed [`WireError`], never a
//! panic and never an uncontrolled allocation (the wire fuzz suite
//! mutates valid frames arbitrarily and asserts exactly this). The
//! byte-exact layout of every payload is specified in
//! `docs/PROTOCOL.md`, which a round-trip test keeps in lockstep with
//! this module.

use tsj_catalog::format::{checksum, ByteReader, ByteWriter};
use tsj_catalog::CatalogError;
use tsj_cluster::ShardRequest;
use tsj_ted::{JoinStats, StageCount};
use tsj_tree::{Label, LabelInterner, Tree};

/// Protocol version spoken by this build. A [`Frame::Hello`] carrying a
/// different version is answered with [`ErrorCode::VersionMismatch`] and
/// the connection closes: payload layouts are fixed *per version*, and
/// additions arrive as new frame types (see the forward-compat policy in
/// `docs/PROTOCOL.md`). Version 2 changed only the envelope's checksum,
/// from FNV-1a to [`tsj_catalog::format::checksum`].
pub const PROTOCOL_VERSION: u16 = 2;

/// Hard cap on `len` (16 MiB): anything larger is
/// [`WireError::FrameTooLarge`] before a single payload byte is read, so
/// a corrupted length prefix cannot drive an out-of-memory allocation.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Envelope overhead inside `len`: the type byte plus the checksum.
const ENVELOPE: u32 = 1 + 8;

/// Wire frame type tags. Kept dense and explicit — `docs/PROTOCOL.md`
/// lists the same table.
mod tag {
    pub const HELLO: u8 = 0x01;
    pub const HELLO_ACK: u8 = 0x02;
    pub const PROBE: u8 = 0x03;
    pub const PROBE_BATCH: u8 = 0x04;
    pub const PROBE_ACK: u8 = 0x05;
    pub const JOIN_SHARD: u8 = 0x06;
    pub const JOIN_SHARD_RESP: u8 = 0x07;
    pub const METRICS: u8 = 0x08;
    pub const METRICS_RESP: u8 = 0x09;
    pub const HEALTH: u8 = 0x0A;
    pub const HEALTH_ACK: u8 = 0x0B;
    pub const SHUTDOWN: u8 = 0x0C;
    pub const SHUTDOWN_ACK: u8 = 0x0D;
    pub const ERROR: u8 = 0x0E;
}

/// Typed error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The peer speaks a different [`PROTOCOL_VERSION`].
    VersionMismatch,
    /// The client pinned a snapshot hash the server does not hold.
    SnapshotMismatch,
    /// The requested threshold exceeds the frozen one.
    TauExceedsFrozen,
    /// A `JoinShard` referenced a probe index never registered on this
    /// connection.
    UnknownProbe,
    /// The addressed node holds no replica of the requested shard.
    ShardNotOwned,
    /// The frame decoded but its contents were unusable.
    BadRequest,
    /// The frame type tag is not known to this server version (the
    /// forward-compat answer: the connection survives).
    UnknownFrameType,
    /// The server failed internally; the request may be retried.
    Internal,
}

impl ErrorCode {
    fn to_u16(self) -> u16 {
        match self {
            ErrorCode::VersionMismatch => 1,
            ErrorCode::SnapshotMismatch => 2,
            ErrorCode::TauExceedsFrozen => 3,
            ErrorCode::UnknownProbe => 4,
            ErrorCode::ShardNotOwned => 5,
            ErrorCode::BadRequest => 6,
            ErrorCode::UnknownFrameType => 7,
            ErrorCode::Internal => 8,
        }
    }

    fn from_u16(v: u16) -> Result<ErrorCode, WireError> {
        Ok(match v {
            1 => ErrorCode::VersionMismatch,
            2 => ErrorCode::SnapshotMismatch,
            3 => ErrorCode::TauExceedsFrozen,
            4 => ErrorCode::UnknownProbe,
            5 => ErrorCode::ShardNotOwned,
            6 => ErrorCode::BadRequest,
            7 => ErrorCode::UnknownFrameType,
            8 => ErrorCode::Internal,
            _ => {
                return Err(WireError::Malformed {
                    context: "unknown error code",
                })
            }
        })
    }
}

/// One probe tree as shipped over the wire: per node, an index into the
/// frame's label string table and the parent slot (`0` = root, else
/// `parent index + 1`), in the order [`Tree::flatten`] produces
/// (preorder, parents before children).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireTree {
    /// `(label table index, parent + 1 or 0)` per node.
    pub nodes: Vec<(u32, u32)>,
}

/// A probe batch: the label strings the trees reference, plus the trees
/// themselves. Labels travel as *strings* so client and server need no
/// shared interner — the server re-interns them on arrival, and every
/// filter stage depends only on label equality, which any injective
/// remapping preserves (the bit-identity argument in `docs/PROTOCOL.md`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProbeBatch {
    /// The label string table.
    pub labels: Vec<String>,
    /// The probe trees, referencing `labels` by index.
    pub trees: Vec<WireTree>,
}

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server greeting. `snapshot_hash == 0` means "any
    /// snapshot"; a nonzero hash pins the catalog the client expects.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
        /// Expected snapshot hash, or 0 for first contact.
        snapshot_hash: u64,
    },
    /// Server → client handshake answer: everything a client needs to
    /// plan shard requests without trusting placement conventions.
    HelloAck {
        /// The server's [`PROTOCOL_VERSION`].
        version: u16,
        /// The [`tsj_catalog::SnapshotReader::digest`] of the snapshot
        /// this node restored from.
        snapshot_hash: u64,
        /// This node's id within the node set.
        node: u32,
        /// Total nodes in the set.
        nodes: u32,
        /// Copies per shard.
        replication: u32,
        /// The threshold the snapshot was frozen for.
        tau: u32,
        /// Shards in the snapshot.
        shard_count: u32,
        /// Catalog trees in the snapshot.
        tree_count: u32,
        /// The shards this node holds, ascending.
        owned_shards: Vec<u32>,
        /// The snapshot's size-class → shard map, encoded with
        /// [`tsj_catalog::snapshot::encode_shard_map`].
        shard_map: Vec<u8>,
    },
    /// Appends one probe tree to the connection's registered batch.
    Probe {
        /// The single-tree batch to append.
        batch: ProbeBatch,
    },
    /// Replaces the connection's registered probe batch.
    ProbeBatch(ProbeBatch),
    /// Acknowledges [`Frame::Probe`] / [`Frame::ProbeBatch`] with the
    /// connection's total registered probe count.
    ProbeAck {
        /// Probes now registered on this connection.
        count: u32,
    },
    /// One scatter unit: serve the registered probe `probe` against
    /// `shard`, restricted to `classes`, at threshold `tau`.
    JoinShard {
        /// Index into the connection's registered probe batch.
        probe: u32,
        /// The shard to serve from.
        shard: u32,
        /// Per-query threshold (≤ the frozen one).
        tau: u32,
        /// The probe-window size classes `shard` owns, ascending.
        classes: Vec<u32>,
    },
    /// A served [`Frame::JoinShard`]: matching catalog tree ids plus the
    /// partial [`JoinStats`] the client's router folds into the total.
    JoinShardResp {
        /// Echo of the request's probe index.
        probe: u32,
        /// Matching catalog tree ids, in candidate order.
        matches: Vec<u32>,
        /// This request's counters (durations carried as nanoseconds).
        stats: JoinStats,
    },
    /// Requests the node's metrics export.
    Metrics,
    /// The node's Prometheus text exposition (its own
    /// `tsj_catalogd_*` registry merged with the process-global
    /// [`tsj_obs::global`] registry).
    MetricsResp {
        /// Prometheus text format, as `tsj_obs::export::to_prometheus`
        /// renders it.
        text: String,
    },
    /// Liveness probe.
    Health,
    /// Liveness answer.
    HealthAck {
        /// The answering node's id.
        node: u32,
        /// Shards currently held.
        owned_shards: u32,
    },
    /// Asks the server process to stop accepting and exit its serve
    /// loop after acknowledging.
    Shutdown,
    /// Acknowledges [`Frame::Shutdown`]; the connection closes next.
    ShutdownAck,
    /// A typed failure answer; the connection survives unless the error
    /// is a framing violation.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail (never required for dispatch).
        message: String,
    },
}

/// Everything that can go wrong encoding or decoding frames. Decoding
/// arbitrary bytes must land in exactly one of these — never a panic —
/// which the `wire_fuzz` suite enforces by mutating valid frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The advertised length.
        len: u32,
    },
    /// The length prefix cannot even hold the envelope.
    FrameTooShort {
        /// The advertised length.
        len: u32,
    },
    /// A handshake frame ([`Frame::Hello`] or [`Frame::HelloAck`]) of
    /// another protocol version: its checksum fails under this version's
    /// envelope and its version field names the peer's version.
    VersionMismatch {
        /// The version the peer's frame carries.
        peer: u16,
    },
    /// The frame checksum disagrees with its bytes.
    ChecksumMismatch {
        /// Checksum stored in the frame.
        stored: u64,
        /// Checksum of the bytes actually received.
        actual: u64,
    },
    /// The frame type tag is unknown to this build.
    UnknownType {
        /// The tag byte found.
        tag: u8,
    },
    /// The payload ended before the structure it promises.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// The payload parsed but describes an impossible structure
    /// (out-of-range index, non-UTF-8 string, trailing garbage, …).
    Malformed {
        /// What was wrong.
        context: &'static str,
    },
    /// The underlying socket failed.
    Io {
        /// The I/O error kind.
        kind: std::io::ErrorKind,
        /// What was being transferred.
        context: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::FrameTooShort { len } => {
                write!(f, "frame length {len} cannot hold a type byte and checksum")
            }
            WireError::VersionMismatch { peer } => write!(
                f,
                "peer speaks protocol version {peer}, this build {PROTOCOL_VERSION}"
            ),
            WireError::ChecksumMismatch { stored, actual } => write!(
                f,
                "frame checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
            ),
            WireError::UnknownType { tag } => write!(f, "unknown frame type {tag:#04x}"),
            WireError::Truncated { context } => {
                write!(f, "frame truncated while reading {context}")
            }
            WireError::Malformed { context } => write!(f, "malformed frame: {context}"),
            WireError::Io { kind, context } => write!(f, "i/o error ({kind:?}) during {context}"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// Whether the error leaves the byte stream in an unknowable state —
    /// a peer hitting one of these must close the connection, because
    /// frame boundaries can no longer be trusted.
    pub fn desyncs_stream(&self) -> bool {
        matches!(
            self,
            WireError::FrameTooLarge { .. }
                | WireError::FrameTooShort { .. }
                | WireError::VersionMismatch { .. }
                | WireError::ChecksumMismatch { .. }
                | WireError::Io { .. }
        )
    }
}

impl From<CatalogError> for WireError {
    fn from(e: CatalogError) -> WireError {
        match e {
            CatalogError::Truncated { context } => WireError::Truncated { context },
            _ => WireError::Malformed {
                context: "invalid embedded section",
            },
        }
    }
}

fn put_str(w: &mut ByteWriter, s: &str) {
    w.put_u32(s.len() as u32);
    w.put_bytes(s.as_bytes());
}

fn get_str<'a>(r: &mut ByteReader<'a>, context: &'static str) -> Result<&'a str, WireError> {
    let len = r.get_count(1, context)?;
    std::str::from_utf8(r.get_bytes(len, context)?).map_err(|_| WireError::Malformed {
        context: "non-UTF-8 string",
    })
}

fn put_u32s(w: &mut ByteWriter, vs: &[u32]) {
    w.put_u32(vs.len() as u32);
    for &v in vs {
        w.put_u32(v);
    }
}

fn get_u32s(r: &mut ByteReader<'_>, context: &'static str) -> Result<Vec<u32>, WireError> {
    let values = r.get_records::<4>(context)?;
    Ok(values.iter().map(|&v| u32::from_le_bytes(v)).collect())
}

fn put_join_shard(w: &mut ByteWriter, probe: u32, shard: u32, tau: u32, classes: &[u32]) {
    w.put_u32(probe);
    w.put_u32(shard);
    w.put_u32(tau);
    put_u32s(w, classes);
}

fn put_probe_batch(w: &mut ByteWriter, batch: &ProbeBatch) {
    w.put_u32(batch.labels.len() as u32);
    for label in &batch.labels {
        put_str(w, label);
    }
    w.put_u32(batch.trees.len() as u32);
    for tree in &batch.trees {
        w.put_u32(tree.nodes.len() as u32);
        for &(label, parent) in &tree.nodes {
            w.put_u32(label);
            w.put_u32(parent);
        }
    }
}

fn get_probe_batch(r: &mut ByteReader<'_>) -> Result<ProbeBatch, WireError> {
    let label_count = r.get_count(4, "probe label table")?;
    let labels = (0..label_count)
        .map(|_| get_str(r, "probe label").map(str::to_owned))
        .collect::<Result<Vec<_>, _>>()?;
    let tree_count = r.get_count(4, "probe tree count")?;
    let trees = (0..tree_count)
        .map(|_| {
            let nodes: Vec<(u32, u32)> = r
                .get_records::<8>("probe tree nodes")?
                .iter()
                .map(|&[l0, l1, l2, l3, p0, p1, p2, p3]| {
                    let label = u32::from_le_bytes([l0, l1, l2, l3]);
                    (label, u32::from_le_bytes([p0, p1, p2, p3]))
                })
                .collect();
            if nodes
                .iter()
                .any(|&(label, _)| label as usize >= labels.len())
            {
                return Err(WireError::Malformed {
                    context: "probe node label out of table range",
                });
            }
            Ok(WireTree { nodes })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(ProbeBatch { labels, trees })
}

fn put_stats(w: &mut ByteWriter, stats: &JoinStats) {
    w.put_u64(stats.pairs_examined);
    w.put_u64(stats.candidates);
    w.put_u64(stats.results);
    w.put_u64(stats.candidate_time.as_nanos() as u64);
    w.put_u64(stats.verify_time.as_nanos() as u64);
    w.put_u64(stats.ted_calls);
    w.put_u64(stats.prefilter_skips);
    w.put_u64(stats.early_accepts);
    w.put_u32(stats.stage_counts.len() as u32);
    for sc in &stats.stage_counts {
        put_str(w, sc.stage);
        w.put_u64(sc.count);
    }
}

fn get_stats(r: &mut ByteReader<'_>) -> Result<JoinStats, WireError> {
    let mut stats = JoinStats {
        pairs_examined: r.get_u64("stats pairs_examined")?,
        candidates: r.get_u64("stats candidates")?,
        results: r.get_u64("stats results")?,
        candidate_time: std::time::Duration::from_nanos(r.get_u64("stats candidate_time")?),
        verify_time: std::time::Duration::from_nanos(r.get_u64("stats verify_time")?),
        ted_calls: r.get_u64("stats ted_calls")?,
        prefilter_skips: r.get_u64("stats prefilter_skips")?,
        early_accepts: r.get_u64("stats early_accepts")?,
        stage_counts: Vec::new(),
    };
    let stages = r.get_count(12, "stats stage count")?;
    for _ in 0..stages {
        // Stage names are a closed set; anything else is a malformed
        // frame (and leaves the stream in sync: the frame was read whole).
        let stage =
            partsj::verify_stage(get_str(r, "stage name")?).ok_or(WireError::Malformed {
                context: "unknown stage name",
            })?;
        let count = r.get_u64("stage counter")?;
        stats.stage_counts.push(StageCount { stage, count });
    }
    Ok(stats)
}

impl Frame {
    fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => tag::HELLO,
            Frame::HelloAck { .. } => tag::HELLO_ACK,
            Frame::Probe { .. } => tag::PROBE,
            Frame::ProbeBatch(_) => tag::PROBE_BATCH,
            Frame::ProbeAck { .. } => tag::PROBE_ACK,
            Frame::JoinShard { .. } => tag::JOIN_SHARD,
            Frame::JoinShardResp { .. } => tag::JOIN_SHARD_RESP,
            Frame::Metrics => tag::METRICS,
            Frame::MetricsResp { .. } => tag::METRICS_RESP,
            Frame::Health => tag::HEALTH,
            Frame::HealthAck { .. } => tag::HEALTH_ACK,
            Frame::Shutdown => tag::SHUTDOWN,
            Frame::ShutdownAck => tag::SHUTDOWN_ACK,
            Frame::Error { .. } => tag::ERROR,
        }
    }

    fn put_payload(&self, w: &mut ByteWriter) {
        match self {
            Frame::Hello {
                version,
                snapshot_hash,
            } => {
                w.put_u16(*version);
                w.put_u64(*snapshot_hash);
            }
            Frame::HelloAck {
                version,
                snapshot_hash,
                node,
                nodes,
                replication,
                tau,
                shard_count,
                tree_count,
                owned_shards,
                shard_map,
            } => {
                w.put_u16(*version);
                w.put_u64(*snapshot_hash);
                w.put_u32(*node);
                w.put_u32(*nodes);
                w.put_u32(*replication);
                w.put_u32(*tau);
                w.put_u32(*shard_count);
                w.put_u32(*tree_count);
                put_u32s(w, owned_shards);
                w.put_u32(shard_map.len() as u32);
                w.put_bytes(shard_map);
            }
            Frame::Probe { batch } => put_probe_batch(w, batch),
            Frame::ProbeBatch(batch) => put_probe_batch(w, batch),
            Frame::ProbeAck { count } => w.put_u32(*count),
            Frame::JoinShard {
                probe,
                shard,
                tau,
                classes,
            } => put_join_shard(w, *probe, *shard, *tau, classes),
            Frame::JoinShardResp {
                probe,
                matches,
                stats,
            } => {
                w.put_u32(*probe);
                put_u32s(w, matches);
                put_stats(w, stats);
            }
            Frame::Metrics | Frame::Health | Frame::Shutdown | Frame::ShutdownAck => {}
            Frame::MetricsResp { text } => put_str(w, text),
            Frame::HealthAck { node, owned_shards } => {
                w.put_u32(*node);
                w.put_u32(*owned_shards);
            }
            Frame::Error { code, message } => {
                w.put_u16(code.to_u16());
                put_str(w, message);
            }
        }
    }

    /// Appends the full frame — length prefix, type, payload, checksum —
    /// to `out`, so a burst of frames is one buffer and one write.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        append_frame(out, self.tag(), |w| self.put_payload(w));
    }

    /// Encodes the full frame into a buffer of its own.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes one frame from the front of `buf`, returning it and the
    /// number of bytes consumed. Every failure is a typed [`WireError`].
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), WireError> {
        let mut r = ByteReader::new(buf);
        let len = check_len(r.get_u32("frame length")?)?;
        let frame = Frame::decode_checked(r.get_bytes(len, "frame body")?)?;
        Ok((frame, 4 + len))
    }

    /// Decodes the `len` bytes behind a length prefix: verifies the
    /// trailing checksum, then decodes the body it covers. A body that
    /// fails the checksum but opens as a handshake frame naming another
    /// version is that version's frame, and says so.
    fn decode_checked(framed: &[u8]) -> Result<Frame, WireError> {
        let (body, stored) = framed.split_at(framed.len() - 8);
        let stored = u64::from_le_bytes(stored.try_into().expect("split 8 from the end"));
        let actual = checksum(body);
        if stored != actual {
            return Err(match body {
                [tag::HELLO | tag::HELLO_ACK, lo, hi, ..]
                    if u16::from_le_bytes([*lo, *hi]) != PROTOCOL_VERSION =>
                {
                    WireError::VersionMismatch {
                        peer: u16::from_le_bytes([*lo, *hi]),
                    }
                }
                _ => WireError::ChecksumMismatch { stored, actual },
            });
        }
        Frame::decode_body(body)
    }

    /// Decodes a checksum-verified frame body (type byte + payload).
    pub fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
        let mut r = ByteReader::new(body);
        let tag = r.get_u8("frame type")?;
        let frame = match tag {
            tag::HELLO => Frame::Hello {
                version: r.get_u16("hello version")?,
                snapshot_hash: r.get_u64("hello snapshot hash")?,
            },
            tag::HELLO_ACK => Frame::HelloAck {
                version: r.get_u16("helloack version")?,
                snapshot_hash: r.get_u64("helloack snapshot hash")?,
                node: r.get_u32("helloack node")?,
                nodes: r.get_u32("helloack nodes")?,
                replication: r.get_u32("helloack replication")?,
                tau: r.get_u32("helloack tau")?,
                shard_count: r.get_u32("helloack shard count")?,
                tree_count: r.get_u32("helloack tree count")?,
                owned_shards: get_u32s(&mut r, "helloack owned shards")?,
                shard_map: {
                    let len = r.get_count(1, "helloack shard map")?;
                    r.get_bytes(len, "helloack shard map")?.to_vec()
                },
            },
            tag::PROBE => Frame::Probe {
                batch: get_probe_batch(&mut r)?,
            },
            tag::PROBE_BATCH => Frame::ProbeBatch(get_probe_batch(&mut r)?),
            tag::PROBE_ACK => Frame::ProbeAck {
                count: r.get_u32("probeack count")?,
            },
            tag::JOIN_SHARD => Frame::JoinShard {
                probe: r.get_u32("joinshard probe")?,
                shard: r.get_u32("joinshard shard")?,
                tau: r.get_u32("joinshard tau")?,
                classes: get_u32s(&mut r, "joinshard classes")?,
            },
            tag::JOIN_SHARD_RESP => Frame::JoinShardResp {
                probe: r.get_u32("joinresp probe")?,
                matches: get_u32s(&mut r, "joinresp matches")?,
                stats: get_stats(&mut r)?,
            },
            tag::METRICS => Frame::Metrics,
            tag::METRICS_RESP => Frame::MetricsResp {
                text: get_str(&mut r, "metrics text")?.to_owned(),
            },
            tag::HEALTH => Frame::Health,
            tag::HEALTH_ACK => Frame::HealthAck {
                node: r.get_u32("healthack node")?,
                owned_shards: r.get_u32("healthack owned")?,
            },
            tag::SHUTDOWN => Frame::Shutdown,
            tag::SHUTDOWN_ACK => Frame::ShutdownAck,
            tag::ERROR => Frame::Error {
                code: ErrorCode::from_u16(r.get_u16("error code")?)?,
                message: get_str(&mut r, "error message")?.to_owned(),
            },
            other => return Err(WireError::UnknownType { tag: other }),
        };
        if r.remaining() != 0 {
            return Err(WireError::Malformed {
                context: "trailing bytes after payload",
            });
        }
        Ok(frame)
    }

    /// Writes the frame to `stream` in one `write_all`.
    pub fn write_to(&self, stream: &mut impl std::io::Write) -> Result<(), WireError> {
        stream.write_all(&self.encode()).map_err(|e| WireError::Io {
            kind: e.kind(),
            context: "writing frame",
        })
    }

    /// Reads exactly one frame from `stream`. Socket failures surface as
    /// [`WireError::Io`] (a read timeout arrives as `WouldBlock` or
    /// `TimedOut`, depending on platform); framing and payload failures
    /// as their typed variants.
    pub fn read_from(stream: &mut impl std::io::Read) -> Result<Frame, WireError> {
        let mut len_bytes = [0u8; 4];
        read_exact(stream, &mut len_bytes, "frame length")?;
        let mut framed = vec![0u8; check_len(u32::from_le_bytes(len_bytes))?];
        read_exact(stream, &mut framed, "frame body")?;
        Frame::decode_checked(&framed)
    }
}

/// The envelope's bounds on a length prefix, checked before any
/// allocation.
fn check_len(len: u32) -> Result<usize, WireError> {
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len });
    }
    if len < ENVELOPE {
        return Err(WireError::FrameTooShort { len });
    }
    Ok(len as usize)
}

fn read_exact(
    stream: &mut impl std::io::Read,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), WireError> {
    stream.read_exact(buf).map_err(|e| WireError::Io {
        kind: e.kind(),
        context,
    })
}

/// Appends one frame to `out`: the length prefix is back-patched once
/// `payload` has run, the checksum covers what it appended.
fn append_frame(out: &mut Vec<u8>, tag: u8, payload: impl FnOnce(&mut ByteWriter)) {
    let start = out.len();
    let mut w = ByteWriter::appending_to(std::mem::take(out));
    w.put_u32(0);
    w.put_u8(tag);
    payload(&mut w);
    *out = w.into_bytes();
    let sum = checksum(&out[start + 4..]);
    out.extend_from_slice(&sum.to_le_bytes());
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Appends the [`Frame::JoinShard`] for `req` to `out` without building
/// the frame — the same bytes, no `classes` clone.
pub(crate) fn encode_join_shard(out: &mut Vec<u8>, req: &ShardRequest, tau: u32) {
    append_frame(out, tag::JOIN_SHARD, |w| {
        put_join_shard(w, req.probe, req.shard, tau, &req.classes)
    });
}

/// Whether `buf` starts with a complete frame, going by its length
/// prefix (an impossible one is for the reader to reject).
pub(crate) fn holds_frame(buf: &[u8]) -> bool {
    buf.first_chunk()
        .is_some_and(|len| buf.len() - 4 >= u32::from_le_bytes(*len) as usize)
}

/// Builds the wire [`ProbeBatch`] for `probes`, resolving each label to
/// its string through `labels`. A probe label the interner cannot
/// resolve is a typed error — it would be unanswerable server-side.
pub fn encode_probes(probes: &[Tree], labels: &LabelInterner) -> Result<ProbeBatch, WireError> {
    let mut table: Vec<String> = Vec::new();
    let mut index: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut trees = Vec::with_capacity(probes.len());
    for probe in probes {
        let columns = probe.labels().iter().zip(probe.parents());
        let nodes = columns
            .map(|(&label, &parent)| {
                let slot = match index.get(&label.raw()) {
                    Some(&slot) => slot,
                    None => {
                        let name = labels.resolve(label).ok_or(WireError::Malformed {
                            context: "probe label missing from the interner",
                        })?;
                        let slot = table.len() as u32;
                        table.push(name.to_string());
                        index.insert(label.raw(), slot);
                        slot
                    }
                };
                // The root's `u32::MAX` wraps to the wire's 0.
                Ok((slot, parent.wrapping_add(1)))
            })
            .collect::<Result<Vec<_>, WireError>>()?;
        trees.push(WireTree { nodes });
    }
    Ok(ProbeBatch {
        labels: table,
        trees,
    })
}

/// Rebuilds the probe [`Tree`]s from a wire batch, interning every label
/// string into `interner` (typically a per-connection clone of the
/// server's snapshot interner, so catalog labels map to their snapshot
/// ids and novel labels get fresh ones — an injective remapping, which
/// is all label-equality filtering needs).
pub fn decode_probes(
    batch: &ProbeBatch,
    interner: &mut LabelInterner,
) -> Result<Vec<Tree>, WireError> {
    let mapped: Vec<Label> = batch
        .labels
        .iter()
        .map(|name| interner.intern(name))
        .collect();
    batch
        .trees
        .iter()
        .map(|tree| {
            let labels = tree.nodes.iter().map(|&(label, _)| mapped[label as usize]);
            // The wire's 0 (the root) wraps back to `u32::MAX`.
            let parents = tree.nodes.iter().map(|&(_, parent)| parent.wrapping_sub(1));
            Tree::from_columns(labels.collect(), parents.collect()).map_err(|_| {
                WireError::Malformed {
                    context: "probe tree structure invalid",
                }
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_tree::parse_bracket;

    fn round_trip(frame: Frame) {
        let bytes = frame.encode();
        let (decoded, consumed) = Frame::decode(&bytes).expect("decodes");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, frame);
    }

    #[test]
    fn every_frame_round_trips() {
        let mut labels = LabelInterner::new();
        let probes = vec![
            parse_bracket("{a{b}{c}}", &mut labels).unwrap(),
            parse_bracket("{x{y{z}}}", &mut labels).unwrap(),
        ];
        let batch = encode_probes(&probes, &labels).unwrap();
        round_trip(Frame::Hello {
            version: PROTOCOL_VERSION,
            snapshot_hash: 0xDEAD_BEEF,
        });
        round_trip(Frame::HelloAck {
            version: PROTOCOL_VERSION,
            snapshot_hash: 1,
            node: 0,
            nodes: 2,
            replication: 2,
            tau: 3,
            shard_count: 8,
            tree_count: 100,
            owned_shards: vec![0, 2, 4, 6],
            shard_map: vec![9, 9, 9],
        });
        round_trip(Frame::Probe {
            batch: batch.clone(),
        });
        round_trip(Frame::ProbeBatch(batch));
        round_trip(Frame::ProbeAck { count: 2 });
        round_trip(Frame::JoinShard {
            probe: 1,
            shard: 3,
            tau: 2,
            classes: vec![4, 5, 6],
        });
        round_trip(Frame::JoinShardResp {
            probe: 1,
            matches: vec![10, 20],
            stats: JoinStats {
                pairs_examined: 5,
                candidates: 5,
                results: 0,
                ted_calls: 2,
                prefilter_skips: 3,
                early_accepts: 0,
                candidate_time: std::time::Duration::from_nanos(1234),
                verify_time: std::time::Duration::from_nanos(5678),
                stage_counts: vec![StageCount {
                    stage: "traversal-sed",
                    count: 3,
                }],
            },
        });
        round_trip(Frame::Metrics);
        round_trip(Frame::MetricsResp {
            text: "# TYPE x counter\nx 1\n".into(),
        });
        round_trip(Frame::Health);
        round_trip(Frame::HealthAck {
            node: 1,
            owned_shards: 4,
        });
        round_trip(Frame::Shutdown);
        round_trip(Frame::ShutdownAck);
        round_trip(Frame::Error {
            code: ErrorCode::TauExceedsFrozen,
            message: "tau 9 > frozen 3".into(),
        });
    }

    #[test]
    fn a_burst_is_the_frames_back_to_back() {
        let frames = [
            Frame::Health,
            Frame::JoinShard {
                probe: 1,
                shard: 3,
                tau: 2,
                classes: vec![4, 5, 6],
            },
            Frame::ProbeAck { count: 9 },
        ];
        let mut burst = vec![0xAB]; // what `out` already holds stays
        for frame in &frames {
            frame.encode_into(&mut burst);
        }
        let req = ShardRequest {
            probe: 1,
            shard: 3,
            classes: vec![4, 5, 6],
        };
        encode_join_shard(&mut burst, &req, 2);
        let apart: Vec<u8> = frames
            .iter()
            .chain([&frames[1]])
            .flat_map(Frame::encode)
            .collect();
        assert_eq!(burst[0], 0xAB);
        assert_eq!(&burst[1..], &apart[..]);

        // `holds_frame` sees exactly the complete ones.
        let health = frames[0].encode();
        assert!(holds_frame(&apart));
        assert!(holds_frame(&health));
        assert!(!holds_frame(&health[..health.len() - 1]));
        assert!(!holds_frame(&health[..3]));
        assert!(!holds_frame(&[]));
    }

    #[test]
    fn probes_survive_the_wire_under_a_different_interner() {
        let mut client = LabelInterner::new();
        // Force disjoint id spaces: pre-intern noise client-side.
        client.intern("noise-1");
        client.intern("noise-2");
        let probes = vec![parse_bracket("{item{dock}{ports}}", &mut client).unwrap()];
        let batch = encode_probes(&probes, &client).unwrap();
        let mut server = LabelInterner::new();
        server.intern("item");
        let decoded = decode_probes(&batch, &mut server).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].len(), probes[0].len());
        // Same structure, labels remapped injectively.
        assert_eq!(
            server.resolve(decoded[0].label(decoded[0].root())).unwrap(),
            "item"
        );
    }

    #[test]
    fn corrupt_frames_yield_typed_errors() {
        let frame = Frame::ProbeAck { count: 7 };
        let bytes = frame.encode();
        // Flip a payload byte: checksum catches it.
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        assert!(matches!(
            Frame::decode(&bad),
            Err(WireError::ChecksumMismatch { .. })
        ));
        // Oversized length prefix: refused before allocation.
        let mut huge = bytes.clone();
        huge[..4].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(
            Frame::decode(&huge),
            Err(WireError::FrameTooLarge { .. })
        ));
        // Undersized length prefix.
        let mut tiny = bytes.clone();
        tiny[..4].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            Frame::decode(&tiny),
            Err(WireError::FrameTooShort { .. })
        ));
        // Truncated buffer.
        assert!(matches!(
            Frame::decode(&bytes[..bytes.len() - 3]),
            Err(WireError::Truncated { .. }) | Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn unknown_frame_type_is_typed_and_checksummed() {
        // Hand-build a frame with an unknown tag but a valid checksum.
        let body = [0x7F_u8, 1, 2, 3];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(body.len() as u32 + 8).to_le_bytes());
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&checksum(&body).to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::UnknownType { tag: 0x7F })
        ));
    }
}
