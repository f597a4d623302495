//! The [`Catalog`] handle: freeze once, serve many joins.

use crate::error::CatalogError;
use crate::snapshot::{write_snapshot, Section, SnapshotReader};
use partsj::{IndexDump, PartSjConfig, VerifyEngine, WindowPolicy};
use std::path::Path;
use tsj_shard::{Frozen, FrozenJoinScratch, ShardConfig, ShardedIndex};
use tsj_ted::{JoinOutcome, JoinStats, TreeIdx};
use tsj_tree::{LabelInterner, Tree};

/// A frozen left collection: its [`Frozen`] side (the sharded subgraph
/// index, the side list of small trees and the precomputed verification
/// inputs), the trees themselves and their label space — everything
/// needed to serve indexed-left joins and single-probe queries without
/// rebuilding anything.
///
/// Build one with [`Catalog::freeze`], persist it with
/// [`Catalog::save`] and bring it back with [`Catalog::load`]; the
/// loaded catalog joins **bit-identically** (pairs *and* candidate
/// counts) to [`tsj_shard::sharded_rs_join`] over the original trees.
///
/// ## The per-query `τ` contract
///
/// Postings are registered once, at freeze time, with the freeze
/// threshold's window half-width. Any query threshold `τ_q ≤ τ_frozen`
/// stays **complete**: the freeze-time `δ = 2τ_f + 1` partitioning
/// yields more subgraphs than `τ_q ≤ τ_f` edits can touch, the frozen
/// position windows cover at least the drift `τ_q` allows, and the probe
/// only narrows the size window to `[|T| − τ_q, |T| + τ_q]`. Exact
/// verification at `τ_q` then makes the result exact (candidate sets may
/// be supersets of a natively-τ_q-built index's, never subsets).
/// Thresholds *above* `τ_frozen` are rejected with
/// [`CatalogError::TauExceedsFrozen`].
#[derive(Debug)]
pub struct Catalog {
    labels: LabelInterner,
    trees: Vec<Tree>,
    frozen: Frozen,
}

/// Reusable scratch for [`Catalog::query_into`] — the same type as
/// [`FrozenJoinScratch`], under the name point-query callers know:
/// the O(catalog-size) candidate-dedup stamp array, the per-shard match
/// caches and the probe buffers. Holding one of these (plus a
/// [`VerifyEngine`]) across a serving loop's point queries makes each
/// query allocation-free in the catalog size — dedup is by an
/// incrementing marker, so the stamp array is never re-cleared, and one
/// scratch may serve catalogs of different size and shard count.
pub type QueryScratch = FrozenJoinScratch;

impl Catalog {
    /// Partitions and indexes `trees` for threshold `tau`, producing a
    /// frozen catalog. `config.window`/`config.partitioning` are frozen
    /// into the snapshot; `shard_cfg.shards` fixes the shard count (the
    /// thread knobs only affect this build).
    ///
    /// Freezing always builds a fresh, fully live index — there are no
    /// tombstones or liveness bitmaps to carry, which is what keeps the
    /// snapshot format a plain postings image.
    pub fn freeze(
        trees: Vec<Tree>,
        labels: LabelInterner,
        tau: u32,
        config: &PartSjConfig,
        shard_cfg: &ShardConfig,
    ) -> Catalog {
        let freeze_span = tsj_obs::span("catalog.freeze", "catalog");
        // The exact build phase of `sharded_rs_join` — sharing the one
        // builder is what keeps a frozen catalog bit-identical to the
        // direct join.
        let frozen = Frozen::build(&trees, tau, config, shard_cfg);
        let obs = tsj_obs::global();
        if obs.is_enabled() {
            obs.counter("tsj_catalog_freezes_total").inc();
            obs.counter("tsj_catalog_trees_frozen_total")
                .add(trees.len() as u64);
        }
        freeze_span.end();
        Catalog {
            labels,
            trees,
            frozen,
        }
    }

    /// The threshold the catalog was frozen for — the ceiling of every
    /// per-query threshold.
    pub fn tau(&self) -> u32 {
        self.index().tau()
    }

    /// The window policy frozen into the index.
    pub fn window(&self) -> WindowPolicy {
        self.index().window()
    }

    /// Number of catalog trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the catalog holds no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Number of index shards (fixed at freeze time).
    pub fn shard_count(&self) -> usize {
        self.index().shard_count()
    }

    /// The catalog trees, indexed by the left component of result pairs.
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// The label space the catalog trees were interned in.
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Mutable label access — probe trees must be parsed against *this*
    /// interner (labels compare by id); new probe-only labels append
    /// without disturbing frozen ids.
    pub fn labels_mut(&mut self) -> &mut LabelInterner {
        &mut self.labels
    }

    /// The frozen sharded index (read-only).
    pub fn index(&self) -> &ShardedIndex {
        self.frozen.index()
    }

    /// The frozen side every join and query of this catalog probes.
    pub fn frozen(&self) -> &Frozen {
        &self.frozen
    }

    fn check_tau(&self, query: u32) -> Result<(), CatalogError> {
        if query > self.tau() {
            return Err(CatalogError::TauExceedsFrozen {
                query,
                frozen: self.tau(),
            });
        }
        Ok(())
    }

    /// Batch indexed-left join: all `(i, j)` with
    /// `TED(catalog[i], probes[j]) ≤ tau`, for any `tau` up to the
    /// frozen threshold (see the [type docs](Catalog) for the
    /// contract). Probing fans out over `shard_cfg`'s probe workers and
    /// the bounded-channel verify pool exactly like
    /// [`tsj_shard::sharded_rs_join`] — `shard_cfg.shards` is ignored
    /// (the shard count was fixed at freeze time).
    ///
    /// `config.window` and `config.partitioning` are likewise frozen;
    /// only the matching semantics, verify chain and batching knobs take
    /// effect per call.
    pub fn join(
        &self,
        probes: &[Tree],
        tau: u32,
        config: &PartSjConfig,
        shard_cfg: &ShardConfig,
    ) -> Result<JoinOutcome, CatalogError> {
        self.check_tau(tau)?;
        Ok(self.frozen.join(
            probes,
            tau,
            config,
            shard_cfg.resolved_probe_threads(),
            shard_cfg.resolved_verify_threads(),
        ))
    }

    /// Sequential indexed-left join with caller-owned state: the
    /// verification engine, [`FrozenJoinScratch`] and result vector all
    /// persist across calls, so a serving loop issuing repeated probe
    /// batches allocates only what the result set itself needs. Pairs
    /// land in `pairs` (cleared first, `(catalog index, probe index)`
    /// normalized like [`Catalog::join`]); candidate counts and stage
    /// counters are bit-identical to the single-threaded
    /// [`Catalog::join`] path.
    pub fn join_with_scratch(
        &self,
        probes: &[Tree],
        tau: u32,
        config: &PartSjConfig,
        verify: &mut VerifyEngine,
        scratch: &mut FrozenJoinScratch,
        pairs: &mut Vec<(TreeIdx, TreeIdx)>,
    ) -> Result<JoinStats, CatalogError> {
        self.check_tau(tau)?;
        Ok(self
            .frozen
            .join_seq(probes, tau, config, verify, scratch, pairs))
    }

    /// Single-probe similarity search — the query type the paper's
    /// introduction defines before generalizing to joins: all
    /// catalog trees within `tau` of `probe` as ascending
    /// `(tree index, exact distance)` pairs. Distances are exact — the
    /// engine only short-circuits on provably tight certificates.
    ///
    /// This convenience form allocates a fresh engine, [`QueryScratch`]
    /// and hit vector per call; a serving loop should hold all three and
    /// use [`Catalog::query_into`] so the O(catalog) stamp array and the
    /// per-shard match caches amortize across probes.
    pub fn query(
        &self,
        probe: &Tree,
        tau: u32,
        config: &PartSjConfig,
    ) -> Result<Vec<(TreeIdx, u32)>, CatalogError> {
        let mut engine = VerifyEngine::with_filters(tau, &config.verify);
        let mut hits = Vec::new();
        let mut scratch = QueryScratch::default();
        self.query_into(probe, config, &mut engine, &mut scratch, &mut hits)?;
        Ok(hits)
    }

    /// The fully recycled form of [`Catalog::query`], reusing a
    /// caller-owned engine (its threshold is the query threshold and
    /// must not exceed the frozen one) and [`QueryScratch`] across
    /// probes: hits are written into `out` (cleared first, ascending
    /// `(tree index, exact distance)`). With a warmed engine and scratch,
    /// a steady-state query performs **zero heap allocations** — the
    /// probe tree's LC-RS form, postorder numbers and verification inputs
    /// are all rebuilt inside grow-only buffers (pinned by the
    /// `steady_state_allocations` integration test).
    pub fn query_into(
        &self,
        probe: &Tree,
        config: &PartSjConfig,
        engine: &mut VerifyEngine,
        scratch: &mut QueryScratch,
        out: &mut Vec<(TreeIdx, u32)>,
    ) -> Result<(), CatalogError> {
        self.check_tau(engine.tau())?;
        self.frozen
            .query_into(probe, config.matching, engine, scratch, out);
        Ok(())
    }

    /// Serializes the catalog into the versioned snapshot byte format
    /// (see [`crate::snapshot`] for the layout), written once into a
    /// buffer of exact size.
    pub fn to_bytes(&self) -> Vec<u8> {
        let save_span = tsj_obs::span("catalog.save", "catalog");
        let index = self.index();
        let dumps: Vec<IndexDump> = (0..index.shard_count())
            .map(|s| index.shard_index(s).dump())
            .collect();
        let trees = self.trees.as_slice();
        let mut sections: Vec<&dyn Section> = vec![&self.labels, &trees, index.shard_map()];
        sections.extend(dumps.iter().map(|dump| dump as &dyn Section));
        let tree_count = self.trees.len() as u32;
        let bytes = write_snapshot(index.tau(), index.window(), tree_count, &sections);
        let obs = tsj_obs::global();
        if obs.is_enabled() {
            obs.counter("tsj_catalog_saves_total").inc();
            obs.histogram("tsj_catalog_snapshot_bytes")
                .record(bytes.len() as u64);
        }
        save_span.end();
        bytes
    }

    /// Writes the snapshot to `path` — atomically *and* durably: the
    /// bytes go to a temporary sibling file which is fsynced before being
    /// renamed over the target, and the parent directory is fsynced after
    /// the rename. Without the first sync a crash shortly after `save`
    /// returns could leave the final name pointing at a correctly-sized
    /// but zero-filled file (the rename is journaled before the data
    /// reaches disk); without the second the rename itself may not
    /// survive. Concurrent readers never observe a half-written file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CatalogError> {
        use std::io::Write;
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let write_synced = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&self.to_bytes())?;
            file.sync_all()
        };
        if let Err(e) = write_synced().and_then(|()| std::fs::rename(&tmp, path)) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        // Persist the directory entry. Some filesystems don't support
        // fsync on directories — best-effort, the data itself is synced.
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }

    /// Deserializes a catalog from snapshot bytes, validating magic,
    /// version, checksums and every structural cross-reference
    /// ([`SnapshotReader::restore`]). The tree sizes re-list the small
    /// trees in their shards' indexes and the tree store drives the
    /// per-tree verification inputs; the shard sections restore the
    /// index postings verbatim.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Catalog, CatalogError> {
        let reader = SnapshotReader::from_bytes(bytes)?;
        Catalog::from_reader(&reader)
    }

    /// Loads a snapshot file saved by [`Catalog::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<Catalog, CatalogError> {
        Catalog::from_reader(&SnapshotReader::open(path)?)
    }

    /// Assembles a catalog from an already-open [`SnapshotReader`] —
    /// useful when the caller has inspected the header (or wants to
    /// keep the reader around for per-shard redistribution).
    pub fn from_reader(reader: &SnapshotReader) -> Result<Catalog, CatalogError> {
        let load_span = tsj_obs::span("catalog.load", "catalog");
        let labels = reader.labels()?;
        let mut trees = Vec::new();
        let frozen = reader.restore(0..reader.shard_count() as u32, |tree| trees.push(tree))?;
        let obs = tsj_obs::global();
        if obs.is_enabled() {
            obs.counter("tsj_catalog_loads_total").inc();
        }
        load_span.end();
        Ok(Catalog {
            labels,
            trees,
            frozen,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_tree::parse_bracket;

    fn catalog_from(specs: &[&str], tau: u32) -> Catalog {
        let mut labels = LabelInterner::new();
        let trees: Vec<Tree> = specs
            .iter()
            .map(|s| parse_bracket(s, &mut labels).unwrap())
            .collect();
        Catalog::freeze(
            trees,
            labels,
            tau,
            &PartSjConfig::default(),
            &ShardConfig::with_shards(2),
        )
    }

    #[test]
    fn freeze_join_finds_pairs() {
        let catalog = catalog_from(&["{a{b}{c}}", "{a{b}{d}}", "{x{y{z}}}"], 1);
        // Probe labels intern against the catalog's label space.
        let mut labels = catalog.labels().clone();
        let probe = parse_bracket("{a{b}{c}}", &mut labels).unwrap();
        let outcome = catalog
            .join(
                std::slice::from_ref(&probe),
                1,
                &PartSjConfig::default(),
                &ShardConfig::with_shards(2),
            )
            .unwrap();
        assert_eq!(outcome.pairs, vec![(0, 0), (1, 0)]);
        let hits = catalog.query(&probe, 1, &PartSjConfig::default()).unwrap();
        assert_eq!(hits, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn query_into_reuses_buffers_and_matches_fresh_queries() {
        let catalog = catalog_from(
            &["{a{b}{c}}", "{a{b}{d}}", "{x{y{z}}}", "{a{b}{c}{d}}", "{q}"],
            2,
        );
        let mut labels = catalog.labels().clone();
        // Mismatched probe sizes on purpose: the grow-only buffers must
        // rebuild correctly when a smaller tree follows a larger one.
        let probes: Vec<Tree> = ["{a{b}{c}{d}}", "{q}", "{x{y}}", "{a{b}{c}}"]
            .iter()
            .map(|s| parse_bracket(s, &mut labels).unwrap())
            .collect();
        let config = PartSjConfig::default();
        let mut engine = VerifyEngine::with_filters(2, &config.verify);
        let mut scratch = QueryScratch::default();
        let mut hits = Vec::new();
        for probe in &probes {
            let fresh = catalog.query(probe, 2, &config).unwrap();
            catalog
                .query_into(probe, &config, &mut engine, &mut scratch, &mut hits)
                .unwrap();
            assert_eq!(hits, fresh);
        }
    }

    #[test]
    fn join_with_scratch_matches_join() {
        let catalog = catalog_from(
            &["{a{b}{c}}", "{a{b}{d}}", "{x{y{z}}}", "{a{b}{c}{d}}", "{q}"],
            2,
        );
        let mut labels = catalog.labels().clone();
        let probes: Vec<Tree> = ["{a{b}{c}}", "{q}", "{a{b}{c}{d}{e}}"]
            .iter()
            .map(|s| parse_bracket(s, &mut labels).unwrap())
            .collect();
        let config = PartSjConfig::default();
        let mut engine = VerifyEngine::new(2, &config);
        let mut scratch = FrozenJoinScratch::new();
        let mut pairs = Vec::new();
        for tau in [0u32, 1, 2] {
            let reference = catalog
                .join(&probes, tau, &config, &ShardConfig::with_shards(2))
                .unwrap();
            let stats = catalog
                .join_with_scratch(&probes, tau, &config, &mut engine, &mut scratch, &mut pairs)
                .unwrap();
            assert_eq!(pairs, reference.pairs, "tau = {tau}");
            assert_eq!(stats.candidates, reference.stats.candidates, "tau = {tau}");
            assert_eq!(stats.results, reference.stats.results, "tau = {tau}");
            assert_eq!(
                stats.prefilter_skips, reference.stats.prefilter_skips,
                "tau = {tau}"
            );
        }
    }

    #[test]
    fn per_query_tau_is_capped_by_frozen_tau() {
        let catalog = catalog_from(&["{a{b}{c}}", "{a{b}{d}}"], 2);
        let mut labels = catalog.labels().clone();
        let probe = parse_bracket("{a{b}{c}}", &mut labels).unwrap();
        for tau in 0..=2 {
            assert!(catalog
                .join(
                    std::slice::from_ref(&probe),
                    tau,
                    &PartSjConfig::default(),
                    &ShardConfig::default()
                )
                .is_ok());
        }
        assert!(matches!(
            catalog.join(
                std::slice::from_ref(&probe),
                3,
                &PartSjConfig::default(),
                &ShardConfig::default()
            ),
            Err(CatalogError::TauExceedsFrozen {
                query: 3,
                frozen: 2
            })
        ));
        assert!(matches!(
            catalog.query(&probe, 3, &PartSjConfig::default()),
            Err(CatalogError::TauExceedsFrozen { .. })
        ));
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        let catalog = catalog_from(&["{a{b}{c}}", "{a{b}{d}}", "{x{y{z}}}", "{q}"], 1);
        let bytes = catalog.to_bytes();
        assert_eq!(
            bytes.capacity(),
            bytes.len(),
            "written into an exact-size buffer"
        );
        let loaded = Catalog::from_bytes(bytes.clone()).unwrap();
        assert_eq!(loaded.tau(), catalog.tau());
        assert_eq!(loaded.window(), catalog.window());
        assert_eq!(loaded.len(), catalog.len());
        assert_eq!(loaded.shard_count(), catalog.shard_count());
        assert_eq!(loaded.labels().len(), catalog.labels().len());
        // `{q}` is below δ = 3: its shard's restored side list lists it.
        let side = |catalog: &Catalog, size| {
            let shard = catalog
                .index()
                .shard_index(catalog.index().shard_of_size(size));
            shard.side_list().class(size).to_vec()
        };
        assert_eq!(side(&loaded, 1), [3]);
        assert_eq!(side(&catalog, 1), [3]);
        for (a, b) in catalog.trees().iter().zip(loaded.trees()) {
            assert!(a.structurally_eq(b));
        }
        // Serialization is deterministic.
        assert_eq!(loaded.to_bytes(), bytes);
    }

    #[test]
    fn balanced_map_travels_with_the_snapshot() {
        let mut labels = LabelInterner::new();
        let trees: Vec<Tree> = ["{a{b}{c}}", "{a{b}{d}}", "{x{y{z}{w}}}", "{a{b}{c}{d}{e}}"]
            .iter()
            .map(|s| parse_bracket(s, &mut labels).unwrap())
            .collect();
        let config = PartSjConfig::default();
        let shard_cfg = ShardConfig {
            shards: 2,
            balanced_shards: true,
            ..ShardConfig::default()
        };
        let catalog = Catalog::freeze(trees, labels, 1, &config, &shard_cfg);
        assert!(matches!(
            catalog.index().shard_map(),
            tsj_shard::ShardMap::Balanced(_)
        ));
        let loaded = Catalog::from_bytes(catalog.to_bytes()).unwrap();
        assert_eq!(loaded.index().shard_map(), catalog.index().shard_map());
        // Routing restored: queries agree with the original catalog.
        let mut probe_labels = catalog.labels().clone();
        let probe = parse_bracket("{a{b}{c}}", &mut probe_labels).unwrap();
        assert_eq!(
            loaded.query(&probe, 1, &config).unwrap(),
            catalog.query(&probe, 1, &config).unwrap()
        );
    }

    #[test]
    fn empty_catalog_round_trips() {
        let catalog = Catalog::freeze(
            Vec::new(),
            LabelInterner::new(),
            2,
            &PartSjConfig::default(),
            &ShardConfig::default(),
        );
        let loaded = Catalog::from_bytes(catalog.to_bytes()).unwrap();
        assert!(loaded.is_empty());
        let mut labels = LabelInterner::new();
        let probe = parse_bracket("{a}", &mut labels).unwrap();
        let outcome = loaded
            .join(
                std::slice::from_ref(&probe),
                1,
                &PartSjConfig::default(),
                &ShardConfig::default(),
            )
            .unwrap();
        assert!(outcome.pairs.is_empty());
        let hits = loaded.query(&probe, 1, &PartSjConfig::default()).unwrap();
        assert!(hits.is_empty());
    }
}
