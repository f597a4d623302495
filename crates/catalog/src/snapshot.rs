//! The versioned snapshot layout and its section codecs.
//!
//! A snapshot file is a fixed header, a section directory, and one byte
//! section per payload:
//!
//! ```text
//! magic "TSJCATLG" | version u32 | tau u32 | window u8 | shards u32 | trees u32
//! directory: (offset u64, len u64, fnv1a64 checksum u64) × (3 + shards)
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
//! migrate.
//!
//! Every section is independently checksummed and independently
//! decodable — a shard section is exactly the unit a multi-node
//! deployment ships to the node that owns the shard. [`SnapshotReader`]
//! parses the header eagerly but decodes sections only on access, so a
//! consumer can read the tree store without paying for shards it does
//! not own.
//!
//! The header records the freeze threshold `tau` and the window policy;
//! both are cross-validated against every shard dump on load. Postings
//! inside a shard are stored verbatim (bucket order, sorted-prefix
//! split), which is what makes a loaded catalog probe **bit-identically**
//! to the index it was frozen from.

use crate::error::CatalogError;
use crate::format::{fnv1a64, ByteReader, ByteWriter};
use partsj::{
    BucketDump, ComponentDump, IndexDump, LayerDump, SubgraphIndex, SubgraphMeta, WindowPolicy,
};
use partsj::{ChildKind, SgNode};
use std::path::Path;
use tsj_shard::{Frozen, ShardMap};
use tsj_tree::{Label, LabelInterner, Tree};

/// Leading bytes of every catalog snapshot.
pub const MAGIC: [u8; 8] = *b"TSJCATLG";

/// The one format version this build writes and reads. Version 2 added
/// the explicit shard-map section (see the [module docs](self)).
pub const FORMAT_VERSION: u32 = 2;

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

fn decode_label(raw: u32, context: &str) -> Result<Label, CatalogError> {
    if raw > Label::MAX_LABELS {
        return Err(CatalogError::Corrupt {
            context: format!("{context}: label id {raw} out of range"),
        });
    }
    Ok(Label::from_raw(raw))
}

/// Encodes the label store: count, then each name as `len u32 + utf8`.
pub fn encode_labels(labels: &LabelInterner) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(labels.len() as u32);
    for (_, name) in labels.iter() {
        w.put_u32(name.len() as u32);
        w.put_bytes(name.as_bytes());
    }
    w.into_bytes()
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

/// Encodes the tree store: tree count, then each tree's two columns
/// side by side (`node count u32`, then per node `label u32 + parent
/// u32` with `u32::MAX` marking the root, as [`Tree::parents`] does).
pub fn encode_trees(trees: &[Tree]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(trees.len() as u32);
    for tree in trees {
        w.put_u32(tree.len() as u32);
        for (label, &parent) in tree.labels().iter().zip(tree.parents()) {
            w.put_u32(label.raw());
            w.put_u32(parent);
        }
    }
    w.into_bytes()
}

/// Every tree's size, in id order, read off a tree store's node counts
/// without decoding a tree.
fn tree_sizes(bytes: &[u8]) -> Result<Vec<u32>, CatalogError> {
    let mut r = ByteReader::new(bytes);
    let count = r.get_count(4, "tree store")?;
    let mut sizes = Vec::with_capacity(count);
    for _ in 0..count {
        let nodes = r.get_count(8, "tree node list")?;
        r.get_bytes(8 * nodes, "tree node list")?;
        sizes.push(nodes as u32);
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
        let nodes = r.get_count(8, "tree node list")?;
        let (mut labels, mut parents) = (Vec::with_capacity(nodes), Vec::with_capacity(nodes));
        for _ in 0..nodes {
            labels.push(decode_label(r.get_u32("tree node label")?, "tree node")?);
            parents.push(r.get_u32("tree node parent")?);
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

/// Encodes the shard-map section: a routing tag, then (for balanced
/// maps) the explicit `(size class, shard)` assignments in ascending
/// size order.
pub fn encode_shard_map(map: &ShardMap) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match map {
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
    w.into_bytes()
}

/// Decodes the shard-map section and validates it against the
/// snapshot's shard count: an out-of-range shard assignment or an
/// unsorted entry list is a typed [`CatalogError::Corrupt`], never a
/// panic (a later probe would otherwise index past the shard vector).
pub fn decode_shard_map(bytes: &[u8], shard_count: usize) -> Result<ShardMap, CatalogError> {
    let mut r = ByteReader::new(bytes);
    let map = match r.get_u8("shard map tag")? {
        0 => ShardMap::Hash,
        1 => {
            let count = r.get_count(8, "shard map entries")?;
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                let size = r.get_u32("shard map size class")?;
                let shard = r.get_u32("shard map target shard")?;
                pairs.push((size, shard));
            }
            ShardMap::Balanced(pairs)
        }
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

/// Encodes one shard's [`IndexDump`].
pub fn encode_shard(dump: &IndexDump) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(dump.tau);
    w.put_u8(encode_window(dump.window));
    w.put_u32(dump.size_layers.len() as u32);
    for &(size, layer) in &dump.size_layers {
        w.put_u32(size);
        w.put_u32(layer);
    }
    w.put_u32(dump.layers.len() as u32);
    for layer in &dump.layers {
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
    w.put_u32(dump.metas.len() as u32);
    for meta in &dump.metas {
        w.put_u32(meta.tree);
        w.put_u32(meta.component);
        w.put_u16(meta.ordinal);
    }
    w.put_u32(dump.components.len() as u32);
    for c in &dump.components {
        w.put_u32(c.start);
        w.put_u32(c.len);
        w.put_u8(c.incoming);
    }
    w.put_u32(dump.arena.len() as u32);
    for node in &dump.arena {
        w.put_u32(node.label.raw());
        w.put_u8(encode_child_kind(node.left));
        w.put_u8(encode_child_kind(node.right));
    }
    w.put_u64(dump.registrations);
    w.into_bytes()
}

/// Decodes one shard section back into a validated [`SubgraphIndex`].
pub fn decode_shard(bytes: &[u8]) -> Result<SubgraphIndex, CatalogError> {
    let mut r = ByteReader::new(bytes);
    let tau = r.get_u32("shard tau")?;
    let window = decode_window(r.get_u8("shard window")?)?;
    let size_count = r.get_count(8, "shard size classes")?;
    let mut size_layers = Vec::with_capacity(size_count);
    for _ in 0..size_count {
        let size = r.get_u32("size class")?;
        let layer = r.get_u32("layer id")?;
        size_layers.push((size, layer));
    }
    let layer_count = r.get_count(4, "shard layers")?;
    let mut layers = Vec::with_capacity(layer_count);
    for _ in 0..layer_count {
        let bucket_count = r.get_count(8, "layer buckets")?;
        let mut buckets = Vec::with_capacity(bucket_count);
        for _ in 0..bucket_count {
            let sorted_len = r.get_u32("bucket sorted prefix")?;
            let posting_count = r.get_count(12, "bucket postings")?;
            let mut postings = Vec::with_capacity(posting_count);
            for _ in 0..posting_count {
                let twig = r.get_u64("posting twig")?;
                let handle = r.get_u32("posting handle")?;
                postings.push((twig, handle));
            }
            buckets.push(BucketDump {
                postings,
                sorted_len,
            });
        }
        layers.push(LayerDump { buckets });
    }
    let meta_count = r.get_count(10, "shard metas")?;
    let mut metas = Vec::with_capacity(meta_count);
    for _ in 0..meta_count {
        let tree = r.get_u32("meta tree")?;
        let component = r.get_u32("meta component")?;
        let ordinal = r.get_u16("meta ordinal")?;
        metas.push(SubgraphMeta {
            tree,
            component,
            ordinal,
        });
    }
    let component_count = r.get_count(9, "shard components")?;
    let mut components = Vec::with_capacity(component_count);
    for _ in 0..component_count {
        let start = r.get_u32("component start")?;
        let len = r.get_u32("component length")?;
        let incoming = r.get_u8("component incoming")?;
        components.push(ComponentDump {
            start,
            len,
            incoming,
        });
    }
    let arena_count = r.get_count(6, "shard arena")?;
    let mut arena = Vec::with_capacity(arena_count);
    for _ in 0..arena_count {
        let label = decode_label(r.get_u32("arena node label")?, "arena node")?;
        let left = decode_child_kind(r.get_u8("arena node left")?)?;
        let right = decode_child_kind(r.get_u8("arena node right")?)?;
        arena.push(SgNode { label, left, right });
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

/// Assembles a whole snapshot file from its already-encoded sections.
///
/// `sections[0]` is the label store, `sections[1]` the tree store,
/// `sections[2]` the shard map and `sections[3..]` one entry per shard
/// (so `tau`/`window`/tree count in the header describe them all).
pub fn assemble(tau: u32, window: WindowPolicy, tree_count: u32, sections: &[Vec<u8>]) -> Vec<u8> {
    let shard_count = (sections.len() - 3) as u32;
    let mut w = ByteWriter::new();
    w.put_bytes(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u32(tau);
    w.put_u8(encode_window(window));
    w.put_u32(shard_count);
    w.put_u32(tree_count);
    let mut offset = (HEADER_FIXED_LEN + DIRECTORY_ENTRY_LEN * sections.len()) as u64;
    for section in sections {
        w.put_u64(offset);
        w.put_u64(section.len() as u64);
        w.put_u64(fnv1a64(section));
        offset += section.len() as u64;
    }
    for section in sections {
        w.put_bytes(section);
    }
    w.into_bytes()
}

/// One directory entry: where a section lives and what it must hash to.
#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    offset: u64,
    len: u64,
    checksum: u64,
}

/// Parsed snapshot header plus the owned file bytes; sections decode
/// lazily (and checksum-verified) on access.
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

    fn section(&self, idx: usize, name: &str) -> Result<&[u8], CatalogError> {
        let entry = self.sections[idx];
        let body = &self.bytes[entry.offset as usize..(entry.offset + entry.len) as usize];
        if fnv1a64(body) != entry.checksum {
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
