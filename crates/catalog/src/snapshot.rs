//! The versioned snapshot layout and its section codecs.
//!
//! A snapshot file is a fixed header, a section directory, and one byte
//! section per payload:
//!
//! ```text
//! magic "TSJCATLG" | version u32 | tau u32 | window u8 | shards u32 | trees u32
//! directory: (offset u64, len u64, checksum u64) × (3 + shards)
//! section 0: label store      — interned label strings, in id order
//! section 1: tree store       — every left tree, flattened preorder
//! section 2: shard map        — the size-class→shard routing
//! section 3+s: shard s        — the shard's SubgraphIndex dump
//! ```
//!
//! Format version 2 added the explicit shard-map section: earlier
//! snapshots implied hash routing, but a catalog frozen with a balanced
//! [`ShardMap`] places size classes where only the map can find them
//! again, so the routing must travel with the file (and is validated
//! against every shard's size classes on load). Version-1 files are
//! rejected with [`CatalogError::UnsupportedVersion`] — re-freeze to
//! migrate. Format version 3 changed only the directory's checksums,
//! from byte-serial FNV-1a to the four-lane [`checksum`]; the layout and
//! every length are those of version 2, and version-2 files are refused
//! the same way.
//!
//! Every section is independently checksummed and independently
//! decodable — a shard section is exactly the unit a multi-node
//! deployment ships to the node that owns the shard. [`SnapshotReader`]
//! parses the header eagerly but decodes sections only on access, so a
//! consumer can read the tree store without paying for shards it does
//! not own; it verifies a section's checksum the first time the section
//! is read and never again. The directory holds every section's
//! checksum, so [`SnapshotReader::digest`], the checksum of the header
//! and directory alone, identifies the whole snapshot.
//!
//! A snapshot is written once, into one buffer of exact size: every
//! [`Section`] knows its encoded length, so [`write_snapshot`] sizes the
//! file up front, encodes each section in place behind a blank
//! directory, and fills each directory entry in as its section ends.
//!
//! The header records the freeze threshold `tau` and the window policy;
//! both are cross-validated against every shard dump on load. Postings
//! inside a shard are stored verbatim (bucket order, sorted-prefix
//! split), which is what makes a loaded catalog probe **bit-identically**
//! to the index it was frozen from.

use crate::error::CatalogError;
use crate::format::{checksum, ByteReader, ByteWriter};
use partsj::{
    BucketDump, ComponentDump, IndexDump, LayerDump, SubgraphIndex, SubgraphMeta, WindowPolicy,
};
use partsj::{ChildKind, SgNode};
use std::path::Path;
use std::sync::OnceLock;
use tsj_shard::{Frozen, ShardMap};
use tsj_tree::{Label, LabelInterner, Tree};

/// Leading bytes of every catalog snapshot.
pub const MAGIC: [u8; 8] = *b"TSJCATLG";

/// The one format version this build writes and reads. Version 2 added
/// the explicit shard-map section, version 3 the four-lane section
/// checksum (see the [module docs](self)).
pub const FORMAT_VERSION: u32 = 3;

const HEADER_FIXED_LEN: usize = 8 + 4 + 4 + 1 + 4 + 4;
const DIRECTORY_ENTRY_LEN: usize = 8 + 8 + 8;

fn encode_window(window: WindowPolicy) -> u8 {
    match window {
        WindowPolicy::Safe => 0,
        WindowPolicy::Tight => 1,
        WindowPolicy::PaperAbsolute => 2,
    }
}

fn decode_window(tag: u8) -> Result<WindowPolicy, CatalogError> {
    match tag {
        0 => Ok(WindowPolicy::Safe),
        1 => Ok(WindowPolicy::Tight),
        2 => Ok(WindowPolicy::PaperAbsolute),
        other => Err(CatalogError::Corrupt {
            context: format!("unknown window policy tag {other}"),
        }),
    }
}

fn encode_child_kind(kind: ChildKind) -> u8 {
    match kind {
        ChildKind::Absent => 0,
        ChildKind::Component => 1,
        ChildKind::Bridge => 2,
    }
}

fn decode_child_kind(tag: u8) -> Result<ChildKind, CatalogError> {
    match tag {
        0 => Ok(ChildKind::Absent),
        1 => Ok(ChildKind::Component),
        2 => Ok(ChildKind::Bridge),
        other => Err(CatalogError::Corrupt {
            context: format!("unknown child-kind tag {other}"),
        }),
    }
}

/// The little-endian `u32` in the 4 bytes of `bytes`.
fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("a 4-byte field"))
}

/// The little-endian `u64` in the 8 bytes of `bytes`.
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte field"))
}

fn decode_label(raw: u32, context: &str) -> Result<Label, CatalogError> {
    if raw > Label::MAX_LABELS {
        return Err(CatalogError::Corrupt {
            context: format!("{context}: label id {raw} out of range"),
        });
    }
    Ok(Label::from_raw(raw))
}

/// One section of a snapshot: something that knows its exact encoded
/// length and appends exactly that many bytes, so a whole snapshot is
/// written into one buffer of exact size ([`write_snapshot`]).
pub trait Section {
    /// The encoding's length in bytes.
    fn encoded_len(&self) -> usize;
    /// Appends the encoding, [`Section::encoded_len`] bytes, to `w`.
    fn encode_into(&self, w: &mut ByteWriter);
}

/// Already-encoded section bytes, written verbatim.
impl Section for Vec<u8> {
    fn encoded_len(&self) -> usize {
        self.len()
    }

    fn encode_into(&self, w: &mut ByteWriter) {
        w.put_bytes(self);
    }
}

/// Encodes one section into a buffer of its own, of exact size.
fn encode_section(section: &impl Section) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(section.encoded_len());
    section.encode_into(&mut w);
    w.into_bytes()
}

/// The label store: count, then each name as `len u32 + utf8`.
impl Section for LabelInterner {
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(|(_, name)| 4 + name.len()).sum::<usize>()
    }

    fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u32(self.len() as u32);
        for (_, name) in self.iter() {
            w.put_u32(name.len() as u32);
            w.put_bytes(name.as_bytes());
        }
    }
}

/// Encodes the label store (see its [`Section`] impl).
pub fn encode_labels(labels: &LabelInterner) -> Vec<u8> {
    encode_section(labels)
}

/// Decodes a label store; interning order reproduces the original ids.
pub fn decode_labels(bytes: &[u8]) -> Result<LabelInterner, CatalogError> {
    let mut r = ByteReader::new(bytes);
    let count = r.get_count(4, "label store")?;
    if count as u64 > u64::from(Label::MAX_LABELS) {
        return Err(CatalogError::Corrupt {
            context: format!("label store claims {count} labels"),
        });
    }
    let mut labels = LabelInterner::new();
    for i in 0..count {
        let len = r.get_u32("label length")? as usize;
        let raw = r.get_bytes(len, "label bytes")?;
        let name = std::str::from_utf8(raw).map_err(|_| CatalogError::Corrupt {
            context: format!("label {i} is not valid UTF-8"),
        })?;
        let label = labels.intern(name);
        if label.raw() != i as u32 + 1 {
            return Err(CatalogError::Corrupt {
                context: format!("label {i} ({name:?}) duplicates an earlier label"),
            });
        }
    }
    if r.remaining() != 0 {
        return Err(CatalogError::Corrupt {
            context: format!("{} trailing bytes after the label store", r.remaining()),
        });
    }
    Ok(labels)
}

/// The tree store: tree count, then each tree's two columns side by
/// side (`node count u32`, then per node `label u32 + parent u32` with
/// `u32::MAX` marking the root, as [`Tree::parents`] does).
impl Section for &[Tree] {
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(|tree| 4 + 8 * tree.len()).sum::<usize>()
    }

    fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u32(self.len() as u32);
        for tree in *self {
            w.put_u32(tree.len() as u32);
            for (label, &parent) in tree.labels().iter().zip(tree.parents()) {
                w.put_u32(label.raw());
                w.put_u32(parent);
            }
        }
    }
}

/// Encodes the tree store (see its [`Section`] impl).
pub fn encode_trees(trees: &[Tree]) -> Vec<u8> {
    encode_section(&trees)
}

/// Every tree's size, in id order, read off a tree store's node counts
/// without decoding a tree.
fn tree_sizes(bytes: &[u8]) -> Result<Vec<u32>, CatalogError> {
    let mut r = ByteReader::new(bytes);
    let count = r.get_count(4, "tree store")?;
    let mut sizes = Vec::with_capacity(count);
    for _ in 0..count {
        sizes.push(r.get_records::<8>("tree node list")?.len() as u32);
    }
    Ok(sizes)
}

/// Decodes a tree store one tree at a time, in id order, reading each
/// tree's columns straight into the tree's own two allocations, and hands
/// each validated tree (label ids in range, a preorder parent column) to
/// `each`, which may refuse it. Nothing but the tree being decoded is
/// held.
fn for_each_tree(
    bytes: &[u8],
    mut each: impl FnMut(Tree) -> Result<(), CatalogError>,
) -> Result<(), CatalogError> {
    let mut r = ByteReader::new(bytes);
    let count = r.get_count(4, "tree store")?;
    for t in 0..count {
        let nodes = r.get_records::<8>("tree node list")?;
        let (mut labels, mut parents) = (
            Vec::with_capacity(nodes.len()),
            Vec::with_capacity(nodes.len()),
        );
        for node in nodes {
            labels.push(decode_label(le_u32(&node[..4]), "tree node")?);
            parents.push(le_u32(&node[4..]));
        }
        let tree = Tree::from_columns(labels, parents).map_err(|e| CatalogError::Corrupt {
            context: format!("tree {t}: {e}"),
        })?;
        each(tree)?;
    }
    if r.remaining() != 0 {
        return Err(CatalogError::Corrupt {
            context: format!("{} trailing bytes after the tree store", r.remaining()),
        });
    }
    Ok(())
}

/// Decodes a whole tree store, one tree at a time, keeping every tree.
pub fn decode_trees(bytes: &[u8]) -> Result<Vec<Tree>, CatalogError> {
    let mut trees = Vec::new();
    for_each_tree(bytes, |tree| {
        trees.push(tree);
        Ok(())
    })?;
    Ok(trees)
}

/// The shard-map section: a routing tag, then (for balanced maps) the
/// explicit `(size class, shard)` assignments in ascending size order.
impl Section for ShardMap {
    fn encoded_len(&self) -> usize {
        match self {
            ShardMap::Hash => 1,
            ShardMap::Balanced(pairs) => 1 + 4 + 8 * pairs.len(),
        }
    }

    fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            ShardMap::Hash => w.put_u8(0),
            ShardMap::Balanced(pairs) => {
                w.put_u8(1);
                w.put_u32(pairs.len() as u32);
                for &(size, shard) in pairs {
                    w.put_u32(size);
                    w.put_u32(shard);
                }
            }
        }
    }
}

/// Encodes the shard-map section (see its [`Section`] impl).
pub fn encode_shard_map(map: &ShardMap) -> Vec<u8> {
    encode_section(map)
}

/// Decodes the shard-map section and validates it against the
/// snapshot's shard count: an out-of-range shard assignment or an
/// unsorted entry list is a typed [`CatalogError::Corrupt`], never a
/// panic (a later probe would otherwise index past the shard vector).
pub fn decode_shard_map(bytes: &[u8], shard_count: usize) -> Result<ShardMap, CatalogError> {
    let mut r = ByteReader::new(bytes);
    let map = match r.get_u8("shard map tag")? {
        0 => ShardMap::Hash,
        1 => ShardMap::Balanced(
            r.get_records::<8>("shard map entries")?
                .iter()
                .map(|entry| (le_u32(&entry[..4]), le_u32(&entry[4..])))
                .collect(),
        ),
        other => {
            return Err(CatalogError::Corrupt {
                context: format!("unknown shard-map tag {other}"),
            })
        }
    };
    if r.remaining() != 0 {
        return Err(CatalogError::Corrupt {
            context: format!("{} trailing bytes after the shard map", r.remaining()),
        });
    }
    map.validate(shard_count)
        .map_err(|context| CatalogError::Corrupt { context })?;
    Ok(map)
}

/// One shard's section: its [`IndexDump`], field by field.
impl Section for IndexDump {
    fn encoded_len(&self) -> usize {
        let layers: usize = self
            .layers
            .iter()
            .map(|layer| {
                let buckets = layer.buckets.iter();
                4 + buckets.map(|b| 8 + 12 * b.postings.len()).sum::<usize>()
            })
            .sum();
        (4 + 1)
            + (4 + 8 * self.size_layers.len())
            + (4 + layers)
            + (4 + 10 * self.metas.len())
            + (4 + 9 * self.components.len())
            + (4 + 6 * self.arena.len())
            + 8
    }

    fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u32(self.tau);
        w.put_u8(encode_window(self.window));
        w.put_u32(self.size_layers.len() as u32);
        for &(size, layer) in &self.size_layers {
            w.put_u32(size);
            w.put_u32(layer);
        }
        w.put_u32(self.layers.len() as u32);
        for layer in &self.layers {
            w.put_u32(layer.buckets.len() as u32);
            for bucket in &layer.buckets {
                w.put_u32(bucket.sorted_len);
                w.put_u32(bucket.postings.len() as u32);
                for &(twig, handle) in &bucket.postings {
                    w.put_u64(twig);
                    w.put_u32(handle);
                }
            }
        }
        w.put_u32(self.metas.len() as u32);
        for meta in &self.metas {
            w.put_u32(meta.tree);
            w.put_u32(meta.component);
            w.put_u16(meta.ordinal);
        }
        w.put_u32(self.components.len() as u32);
        for c in &self.components {
            w.put_u32(c.start);
            w.put_u32(c.len);
            w.put_u8(c.incoming);
        }
        w.put_u32(self.arena.len() as u32);
        for node in &self.arena {
            w.put_u32(node.label.raw());
            w.put_u8(encode_child_kind(node.left));
            w.put_u8(encode_child_kind(node.right));
        }
        w.put_u64(self.registrations);
    }
}

/// Encodes one shard's [`IndexDump`] (see its [`Section`] impl).
pub fn encode_shard(dump: &IndexDump) -> Vec<u8> {
    encode_section(dump)
}

/// Decodes one shard section back into a validated [`SubgraphIndex`].
pub fn decode_shard(bytes: &[u8]) -> Result<SubgraphIndex, CatalogError> {
    let mut r = ByteReader::new(bytes);
    let tau = r.get_u32("shard tau")?;
    let window = decode_window(r.get_u8("shard window")?)?;
    let size_layers = r
        .get_records::<8>("shard size classes")?
        .iter()
        .map(|class| (le_u32(&class[..4]), le_u32(&class[4..])))
        .collect();
    let layer_count = r.get_count(4, "shard layers")?;
    let mut layers = Vec::with_capacity(layer_count);
    for _ in 0..layer_count {
        let bucket_count = r.get_count(8, "layer buckets")?;
        let mut buckets = Vec::with_capacity(bucket_count);
        for _ in 0..bucket_count {
            let sorted_len = r.get_u32("bucket sorted prefix")?;
            let postings = r
                .get_records::<12>("bucket postings")?
                .iter()
                .map(|posting| (le_u64(&posting[..8]), le_u32(&posting[8..])))
                .collect();
            buckets.push(BucketDump {
                postings,
                sorted_len,
            });
        }
        layers.push(LayerDump { buckets });
    }
    let metas = r
        .get_records::<10>("shard metas")?
        .iter()
        .map(|meta| SubgraphMeta {
            tree: le_u32(&meta[..4]),
            component: le_u32(&meta[4..8]),
            ordinal: u16::from_le_bytes([meta[8], meta[9]]),
        })
        .collect();
    let components = r
        .get_records::<9>("shard components")?
        .iter()
        .map(|c| ComponentDump {
            start: le_u32(&c[..4]),
            len: le_u32(&c[4..8]),
            incoming: c[8],
        })
        .collect();
    let nodes = r.get_records::<6>("shard arena")?;
    let mut arena = Vec::with_capacity(nodes.len());
    for node in nodes {
        arena.push(SgNode {
            label: decode_label(le_u32(&node[..4]), "arena node")?,
            left: decode_child_kind(node[4])?,
            right: decode_child_kind(node[5])?,
        });
    }
    let registrations = r.get_u64("shard registrations")?;
    if r.remaining() != 0 {
        return Err(CatalogError::Corrupt {
            context: format!("{} trailing bytes after the shard dump", r.remaining()),
        });
    }
    SubgraphIndex::restore(IndexDump {
        tau,
        window,
        size_layers,
        layers,
        metas,
        components,
        arena,
        registrations,
    })
    .map_err(|context| CatalogError::Corrupt { context })
}

/// Writes a whole snapshot file into one buffer of exact size.
///
/// `sections[0]` is the label store, `sections[1]` the tree store,
/// `sections[2]` the shard map and `sections[3..]` one entry per shard
/// (so `tau`/`window`/tree count in the header describe them all). The
/// header goes first with a blank directory; each section is encoded in
/// place, checksummed where it lies, and its directory entry filled in.
pub fn write_snapshot(
    tau: u32,
    window: WindowPolicy,
    tree_count: u32,
    sections: &[&dyn Section],
) -> Vec<u8> {
    let directory_end = HEADER_FIXED_LEN + DIRECTORY_ENTRY_LEN * sections.len();
    let total = directory_end + sections.iter().map(|s| s.encoded_len()).sum::<usize>();
    let mut w = ByteWriter::with_capacity(total);
    w.put_bytes(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u32(tau);
    w.put_u8(encode_window(window));
    w.put_u32((sections.len() - 3) as u32);
    w.put_u32(tree_count);
    w.put_bytes(&[0; DIRECTORY_ENTRY_LEN].repeat(sections.len()));
    for (i, section) in sections.iter().enumerate() {
        let start = w.len();
        section.encode_into(&mut w);
        let body = &w.as_slice()[start..];
        debug_assert_eq!(body.len(), section.encoded_len(), "section {i}");
        let mut entry = [0u8; DIRECTORY_ENTRY_LEN];
        entry[..8].copy_from_slice(&(start as u64).to_le_bytes());
        entry[8..16].copy_from_slice(&(body.len() as u64).to_le_bytes());
        entry[16..].copy_from_slice(&checksum(body).to_le_bytes());
        w.patch(HEADER_FIXED_LEN + DIRECTORY_ENTRY_LEN * i, &entry);
    }
    debug_assert_eq!(w.len(), total);
    w.into_bytes()
}

/// Assembles a whole snapshot file from already-encoded sections, laid
/// out as [`write_snapshot`] describes.
pub fn assemble(tau: u32, window: WindowPolicy, tree_count: u32, sections: &[Vec<u8>]) -> Vec<u8> {
    let sections: Vec<&dyn Section> = sections.iter().map(|s| s as _).collect();
    write_snapshot(tau, window, tree_count, &sections)
}

/// One directory entry: where a section lives and what it must hash to.
#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    offset: u64,
    len: u64,
    checksum: u64,
}

/// Parsed snapshot header plus the owned file bytes; sections decode
/// lazily on access, each checksum-verified on its first read.
///
/// This is the distribution-friendly view of a snapshot: a node that
/// owns shards `{2, 5}` calls [`SnapshotReader::restore`]`([2, 5])` and
/// never touches the other shards' bytes. [`crate::Catalog::load`]
/// calls the same restore with every shard.
#[derive(Debug)]
pub struct SnapshotReader {
    bytes: Vec<u8>,
    tau: u32,
    window: WindowPolicy,
    tree_count: u32,
    sections: Vec<SectionEntry>,
    /// Per section, whether its bytes match the directory's checksum,
    /// settled on the first read: a section decoded twice is hashed once.
    verified: Vec<OnceLock<bool>>,
}

impl SnapshotReader {
    /// Parses the header and section directory of `bytes`.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<SnapshotReader, CatalogError> {
        let mut r = ByteReader::new(&bytes);
        let magic = r.get_bytes(8, "magic")?;
        if magic != MAGIC {
            return Err(CatalogError::BadMagic {
                found: magic.try_into().unwrap(),
            });
        }
        let version = r.get_u32("format version")?;
        if version != FORMAT_VERSION {
            return Err(CatalogError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let tau = r.get_u32("header tau")?;
        let window = decode_window(r.get_u8("header window")?)?;
        let shard_count = r.get_u32("header shard count")?;
        let tree_count = r.get_u32("header tree count")?;
        let section_count = (shard_count as usize)
            .checked_add(3)
            .filter(|&n| n * DIRECTORY_ENTRY_LEN <= r.remaining())
            .ok_or(CatalogError::Truncated {
                context: "section directory",
            })?;
        let mut sections = Vec::with_capacity(section_count);
        for _ in 0..section_count {
            let offset = r.get_u64("section offset")?;
            let len = r.get_u64("section length")?;
            let checksum = r.get_u64("section checksum")?;
            let end = offset.checked_add(len);
            if end.is_none_or(|end| end > bytes.len() as u64) {
                return Err(CatalogError::Truncated {
                    context: "section body",
                });
            }
            sections.push(SectionEntry {
                offset,
                len,
                checksum,
            });
        }
        Ok(SnapshotReader {
            bytes,
            tau,
            window,
            tree_count,
            verified: sections.iter().map(|_| OnceLock::new()).collect(),
            sections,
        })
    }

    /// Reads and parses a snapshot file.
    pub fn open(path: impl AsRef<Path>) -> Result<SnapshotReader, CatalogError> {
        SnapshotReader::from_bytes(std::fs::read(path)?)
    }

    /// The threshold the snapshot was frozen for.
    pub fn tau(&self) -> u32 {
        self.tau
    }

    /// The window policy the index was frozen under.
    pub fn window(&self) -> WindowPolicy {
        self.window
    }

    /// Number of shards in the snapshot.
    pub fn shard_count(&self) -> usize {
        self.sections.len() - 3
    }

    /// Number of trees in the tree store.
    pub fn tree_count(&self) -> usize {
        self.tree_count as usize
    }

    /// The snapshot's identity: the [`checksum`] of its header and
    /// section directory. The directory carries every section's
    /// checksum, so two snapshots whose sections all verify have equal
    /// digests exactly when their bytes are equal (up to checksum
    /// collisions) — and the digest reads ~100 bytes, not the file.
    pub fn digest(&self) -> u64 {
        checksum(&self.bytes[..HEADER_FIXED_LEN + DIRECTORY_ENTRY_LEN * self.sections.len()])
    }

    fn section(&self, idx: usize, name: &str) -> Result<&[u8], CatalogError> {
        let entry = self.sections[idx];
        let body = &self.bytes[entry.offset as usize..(entry.offset + entry.len) as usize];
        if !*self.verified[idx].get_or_init(|| checksum(body) == entry.checksum) {
            return Err(CatalogError::ChecksumMismatch {
                section: name.to_string(),
            });
        }
        Ok(body)
    }

    /// Decodes the label store (checksum-verified).
    pub fn labels(&self) -> Result<LabelInterner, CatalogError> {
        decode_labels(self.section(0, "labels")?)
    }

    /// Decodes the whole tree store (checksum-verified).
    pub fn trees(&self) -> Result<Vec<Tree>, CatalogError> {
        decode_trees(self.tree_store()?.0)
    }

    /// The tree store section (checksum-verified) and every tree's size,
    /// their count checked against the header's.
    fn tree_store(&self) -> Result<(&[u8], Vec<u32>), CatalogError> {
        let store = self.section(1, "trees")?;
        let sizes = tree_sizes(store)?;
        if sizes.len() != self.tree_count as usize {
            return Err(CatalogError::Corrupt {
                context: format!(
                    "header promises {} trees but the store holds {}",
                    self.tree_count,
                    sizes.len()
                ),
            });
        }
        Ok((store, sizes))
    }

    /// Decodes the shard-map section (checksum-verified) and validates
    /// its assignments against the header's shard count.
    pub fn shard_map(&self) -> Result<ShardMap, CatalogError> {
        decode_shard_map(self.section(2, "shard-map")?, self.shard_count())
    }

    /// Byte range of shard `s`'s section body within the snapshot file —
    /// the span a corruption test (or a future partial-shipping
    /// transport) targets to touch exactly one shard. Same range check as
    /// [`SnapshotReader::shard`].
    pub fn shard_section_range(&self, s: usize) -> Result<std::ops::Range<usize>, CatalogError> {
        if s >= self.shard_count() {
            return Err(CatalogError::Corrupt {
                context: format!(
                    "shard {s} requested but the snapshot holds {}",
                    self.shard_count()
                ),
            });
        }
        let entry = self.sections[3 + s];
        Ok(entry.offset as usize..(entry.offset + entry.len) as usize)
    }

    /// Decodes shard `s` into a validated [`SubgraphIndex`]
    /// (checksum-verified) — the unit of multi-node placement. An
    /// out-of-range index is a typed error (a misconfigured node asking
    /// for a shard the snapshot does not hold), not a panic.
    pub fn shard(&self, s: usize) -> Result<SubgraphIndex, CatalogError> {
        if s >= self.shard_count() {
            return Err(CatalogError::Corrupt {
                context: format!(
                    "shard {s} requested but the snapshot holds {}",
                    self.shard_count()
                ),
            });
        }
        let index = decode_shard(self.section(3 + s, &format!("shard {s}"))?)?;
        if index.tau() != self.tau || index.window() != self.window {
            return Err(CatalogError::Corrupt {
                context: format!(
                    "shard {s} was frozen for (tau {}, {:?}) but the header says (tau {}, {:?})",
                    index.tau(),
                    index.window(),
                    self.tau,
                    self.window
                ),
            });
        }
        Ok(index)
    }

    /// The one way a snapshot becomes a servable frozen side — whole
    /// (`Catalog`: every shard) or in part (a cluster node: the shards
    /// it owns; the rest stay empty). Decodes the shard map, the `owned`
    /// shard sections and every tree's size, then streams the tree store
    /// through [`Frozen::restore`] one tree at a time, each section
    /// checksum-verified: every tree is validated and tracked, only those
    /// of owned size classes get verification inputs, and each decoded
    /// tree is handed to `keep` — which keeps it (`Catalog`) or drops it
    /// (a node), so a node never holds the whole store. The restore's
    /// cross-checks — every shard frozen for the header's `(tau,
    /// window)` and holding only size classes the map gives it, no tree
    /// tracked twice, every posting's tree present in the store and of a
    /// size class its shard owns — turn a checksum-valid but
    /// inconsistent snapshot into a typed [`CatalogError::Corrupt`] here,
    /// not a panic or a short answer in a later probe.
    pub fn restore(
        &self,
        owned: impl IntoIterator<Item = u32>,
        mut keep: impl FnMut(Tree),
    ) -> Result<Frozen, CatalogError> {
        let corrupt = |context| CatalogError::Corrupt { context };
        let map = self.shard_map()?;
        let mut shards: Vec<Option<SubgraphIndex>> =
            (0..self.shard_count()).map(|_| None).collect();
        for s in owned {
            let index = self.shard(s as usize)?; // range-checked before the slot is indexed
            shards[s as usize] = Some(index);
        }
        let (store, sizes) = self.tree_store()?;
        let mut restore =
            Frozen::restore(self.tau, self.window, map, shards, sizes).map_err(corrupt)?;
        for_each_tree(store, |tree| {
            restore.push(&tree).map_err(corrupt)?;
            keep(tree);
            Ok(())
        })?;
        restore.finish().map_err(corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_tree::parse_bracket;

    #[test]
    fn labels_round_trip() {
        let mut labels = LabelInterner::new();
        for name in ["html", "body", "ℓ-unicode", ""] {
            labels.intern(name);
        }
        let restored = decode_labels(&encode_labels(&labels)).unwrap();
        assert_eq!(restored.len(), labels.len());
        for (label, name) in labels.iter() {
            assert_eq!(restored.resolve(label), Some(name));
        }
    }

    #[test]
    fn trees_round_trip() {
        let mut labels = LabelInterner::new();
        let trees: Vec<Tree> = ["{a{b}{c}}", "{x}", "{a{b{c{d}}}{e}}"]
            .iter()
            .map(|s| parse_bracket(s, &mut labels).unwrap())
            .collect();
        let restored = decode_trees(&encode_trees(&trees)).unwrap();
        assert_eq!(restored.len(), trees.len());
        for (a, b) in trees.iter().zip(&restored) {
            assert!(a.structurally_eq(b));
        }
    }

    /// An empty, shardless snapshot: labels, trees and a hash shard map.
    fn empty_sections() -> Vec<Vec<u8>> {
        vec![Vec::new(), Vec::new(), encode_shard_map(&ShardMap::Hash)]
    }

    #[test]
    fn shard_map_round_trips_both_variants() {
        for map in [
            ShardMap::Hash,
            ShardMap::Balanced(vec![(3, 1), (7, 0), (9, 3)]),
        ] {
            let restored = decode_shard_map(&encode_shard_map(&map), 4).unwrap();
            assert_eq!(restored, map);
        }
    }

    #[test]
    fn shard_map_decoding_rejects_garbage() {
        // Unknown routing tag.
        assert!(matches!(
            decode_shard_map(&[9], 1),
            Err(CatalogError::Corrupt { context }) if context.contains("tag 9")
        ));
        // Trailing bytes after a complete map.
        let mut padded = encode_shard_map(&ShardMap::Hash);
        padded.push(0);
        assert!(matches!(
            decode_shard_map(&padded, 1),
            Err(CatalogError::Corrupt { context }) if context.contains("trailing")
        ));
        // An assignment pointing past the snapshot's shard count: the
        // "out-of-range size class" corruption case must be a typed
        // error, not a later out-of-bounds probe.
        let rogue = encode_shard_map(&ShardMap::Balanced(vec![(5, 7)]));
        assert!(matches!(
            decode_shard_map(&rogue, 2),
            Err(CatalogError::Corrupt { context }) if context.contains("shard 7")
        ));
        // Truncated mid-entry.
        let full = encode_shard_map(&ShardMap::Balanced(vec![(5, 0)]));
        assert!(matches!(
            decode_shard_map(&full[..full.len() - 2], 1),
            Err(CatalogError::Truncated { .. })
        ));
    }

    #[test]
    fn snapshot_carries_the_shard_map() {
        let map = ShardMap::Balanced(vec![(2, 1), (6, 0)]);
        let sections = vec![
            Vec::new(),
            Vec::new(),
            encode_shard_map(&map),
            Vec::new(),
            Vec::new(),
        ];
        let snapshot = assemble(1, WindowPolicy::Safe, 0, &sections);
        let reader = SnapshotReader::from_bytes(snapshot).unwrap();
        assert_eq!(reader.shard_count(), 2);
        assert_eq!(reader.shard_map().unwrap(), map);
    }

    #[test]
    fn header_rejects_foreign_and_future_files() {
        let snapshot = assemble(1, WindowPolicy::Safe, 0, &empty_sections());
        assert!(SnapshotReader::from_bytes(snapshot.clone()).is_ok());

        let mut foreign = snapshot.clone();
        foreign[0] = b'X';
        assert!(matches!(
            SnapshotReader::from_bytes(foreign),
            Err(CatalogError::BadMagic { .. })
        ));

        let mut future = snapshot.clone();
        future[8] = 99;
        assert!(matches!(
            SnapshotReader::from_bytes(future),
            Err(CatalogError::UnsupportedVersion { found: 99, .. })
        ));

        assert!(matches!(
            SnapshotReader::from_bytes(snapshot[..10].to_vec()),
            Err(CatalogError::Truncated { .. })
        ));
    }

    #[test]
    fn digest_covers_every_section_through_the_directory() {
        let mut labels = LabelInterner::new();
        let one = vec![parse_bracket("{a{b}}", &mut labels).unwrap()];
        let other = vec![parse_bracket("{a{c}}", &mut labels).unwrap()];
        let snapshot = |trees: &[Tree]| {
            let sections = [
                encode_labels(&labels),
                encode_trees(trees),
                encode_shard_map(&ShardMap::Hash),
            ];
            SnapshotReader::from_bytes(assemble(1, WindowPolicy::Safe, 1, &sections)).unwrap()
        };
        let digest = snapshot(&one).digest();
        assert_eq!(snapshot(&one).digest(), digest);
        // A tree store of the same length but other bytes: only its
        // directory checksum differs, and so does the digest.
        assert_ne!(snapshot(&other).digest(), digest);
    }

    #[test]
    fn out_of_range_shard_is_a_typed_error() {
        let snapshot = assemble(1, WindowPolicy::Safe, 0, &empty_sections());
        let reader = SnapshotReader::from_bytes(snapshot).unwrap();
        assert_eq!(reader.shard_count(), 0);
        assert!(matches!(
            reader.shard(0),
            Err(CatalogError::Corrupt { context }) if context.contains("shard 0")
        ));
    }

    #[test]
    fn section_checksums_catch_bit_rot() {
        let mut labels = LabelInterner::new();
        let trees = vec![parse_bracket("{a{b}}", &mut labels).unwrap()];
        let sections = vec![
            encode_labels(&labels),
            encode_trees(&trees),
            encode_shard_map(&ShardMap::Hash),
        ];
        let mut snapshot = assemble(1, WindowPolicy::Safe, 1, &sections);
        let reader = SnapshotReader::from_bytes(snapshot.clone()).unwrap();
        assert!(reader.trees().is_ok());
        assert!(reader.shard_map().is_ok());

        // Flip one payload byte (the last byte belongs to the shard-map
        // section): the directory still parses, the section read reports
        // the rot — and the untouched sections keep decoding.
        let last = snapshot.len() - 1;
        snapshot[last] ^= 0xff;
        let reader = SnapshotReader::from_bytes(snapshot).unwrap();
        assert!(reader.trees().is_ok());
        assert!(matches!(
            reader.shard_map(),
            Err(CatalogError::ChecksumMismatch { section }) if section == "shard-map"
        ));
    }
}
