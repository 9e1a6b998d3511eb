//! The swappable world: what the daemon holds warm and what a reload
//! replaces.
//!
//! A [`WorldSnapshot`] is everything a query needs, built once:
//! universe, dependency index, lint facts and the cached figure sweep,
//! stamped with a monotonically increasing epoch. The [`SnapshotStore`]
//! holds the current snapshot behind `RwLock<Arc<..>>`: readers clone
//! the `Arc` (a refcount bump under a read lock held for nanoseconds)
//! and keep answering from the old world while a reload builds and
//! swaps in the next one — queries never observe a torn snapshot, only
//! epoch N or epoch N+1.

use perils_core::closure::{DependencyIndex, IndexBuildStats};
use perils_core::lint::LintIndex;
use perils_core::universe::Universe;
use perils_survey::engine::Engine;
use perils_survey::render::{FigureOutcome, FigureRegistry};
use perils_survey::snapshot::{load_world_bytes, world_archive_bytes, LoadedWorld};
use perils_survey::{NameTable, SnapshotBackend, WorldSpec};
use perils_util::snapshot::SnapshotError;
use perils_util::ByteStore;
use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

/// Where the active snapshot came from — `/metrics` surfaces this as
/// `perilsd_snapshot_source{kind="built|loaded"}` so operators can tell
/// a from-scratch build from a `.psa` archive boot at a glance.
#[derive(Debug, Clone)]
pub enum SnapshotSource {
    /// Built from scratch through the streamed ingestion path.
    Built,
    /// Reconstituted from a `.psa` snapshot archive.
    Loaded {
        /// Archive size on disk.
        archive_bytes: u64,
        /// Wall-clock of the read + decode.
        load: Duration,
    },
}

impl SnapshotSource {
    /// The `/metrics` label value.
    pub fn kind(&self) -> &'static str {
        match self {
            SnapshotSource::Built => "built",
            SnapshotSource::Loaded { .. } => "loaded",
        }
    }

    /// Archive load wall-time in milliseconds (0 for built snapshots).
    pub fn load_ms(&self) -> f64 {
        match self {
            SnapshotSource::Built => 0.0,
            SnapshotSource::Loaded { load, .. } => load.as_secs_f64() * 1e3,
        }
    }
}

/// Build cost breakdown, surfaced by `/healthz` logging and `/metrics`.
#[derive(Debug, Clone)]
pub struct SnapshotStats {
    /// Wall-clock of the whole build (stream + index + lint + figures +
    /// archive round trip), or of the archive load for loaded snapshots.
    pub build: Duration,
    /// Dependency-index phase timings (zeroed for loaded snapshots — the
    /// index is read, not rebuilt).
    pub index: IndexBuildStats,
    /// Universe shape.
    pub zones: usize,
    /// Universe shape.
    pub servers: usize,
    /// Surveyed names.
    pub names: usize,
    /// Figures rendered into the cached sweep (0 with `--no-figures`).
    pub figures: usize,
    /// Whether this world was built or loaded from an archive.
    pub source: SnapshotSource,
}

/// One immutable world generation: everything a query touches.
#[derive(Debug)]
pub struct WorldSnapshot {
    /// Strictly increasing generation counter (starts at 1).
    pub epoch: u64,
    /// The delegation universe.
    pub universe: Universe,
    /// Universe-wide dependency index (closures, SCCs, memoized sets).
    pub index: DependencyIndex,
    /// Shared lint facts (depths, zombies, reachability).
    pub lint: LintIndex,
    /// The surveyed names, in survey order: a lazy view into the archive
    /// store (so `/names` responses decode only what they return).
    pub names: NameTable,
    /// Indices into `names` of the most popular subset (what the
    /// top-500 figures slice on; archived so a loaded world can re-run
    /// the figure sweep).
    pub top500: Vec<usize>,
    /// The cached full-figure sweep as one JSON document, or `None`
    /// when the daemon was started with figures disabled.
    pub figures_json: Option<String>,
    /// Build cost and shape.
    pub stats: SnapshotStats,
    /// The archive byte store the world reads from — for a built world,
    /// its in-memory archive. `/metrics` reads the backend kind (`"heap"`
    /// or `"paged"`), resident bytes and page-cache counters off it.
    pub store: Arc<ByteStore>,
    /// When the build finished (drives `/metrics` snapshot age).
    pub built: Instant,
}

impl WorldSnapshot {
    /// Builds generation `epoch` of `spec` from scratch through the
    /// streamed ingestion path — universe, dependency index, lint facts
    /// and, unless disabled, the full figure sweep over that one index —
    /// then serializes the world to an in-memory archive and loads it
    /// back, so a built world serves from exactly what a `.psa` boot of
    /// its own archive would.
    pub fn build(spec: &WorldSpec, epoch: u64, threads: usize, figures: bool) -> WorldSnapshot {
        let start = Instant::now();
        let world = spec.stream().collect();
        let (index, index_stats) = DependencyIndex::build_with_stats(&world.universe, threads);
        let lint = LintIndex::build(&world.universe);
        let (world, figures) = if figures {
            let engine = Engine::with_extended_metrics().threads(NonZeroUsize::new(threads));
            let report = engine.run_world_indexed(world, &index);
            let figures = render_figures(&report, epoch);
            (report.world, Some(figures))
        } else {
            (world, None)
        };
        let bytes = world_archive_bytes(
            &world.universe,
            &index,
            &lint,
            &world.names,
            &world.top500,
            figures.as_ref().map(|(json, n)| (json.as_str(), *n)),
        );
        drop((world, index, lint, figures));
        let loaded = load_world_bytes(bytes).expect("a freshly built world archive loads");
        WorldSnapshot::from_loaded(
            loaded,
            epoch,
            start.elapsed(),
            index_stats,
            SnapshotSource::Built,
        )
    }

    /// The tail every world shares once its archive bytes exist: the
    /// figure JSON re-stamped with `epoch`, stats, and the store.
    fn from_loaded(
        world: LoadedWorld,
        epoch: u64,
        build: Duration,
        index: IndexBuildStats,
        source: SnapshotSource,
    ) -> WorldSnapshot {
        let figures_json = world
            .figures_json
            .map(|json| restamp_figures_epoch(&json, epoch));
        let stats = SnapshotStats {
            build,
            index,
            zones: world.universe.zone_count(),
            servers: world.universe.server_count(),
            names: world.names.len(),
            figures: world.figures_rendered,
            source,
        };
        WorldSnapshot {
            epoch,
            universe: world.universe,
            index: world.index,
            lint: world.lint,
            names: world.names,
            top500: world.top500,
            figures_json,
            stats,
            store: world.store,
            built: Instant::now(),
        }
    }

    /// Persists this snapshot as a `.psa` archive; returns the bytes
    /// written. Every world serves from an archive store, so this writes
    /// the store's bytes as they are: a built world's are what
    /// `save_world` would encode, and a loaded world's are the file it
    /// was booted from — its cached figure sweep keeps the epoch stamp it
    /// was saved with, which every loader rewrites to its own epoch.
    pub fn save_archive(&self, path: impl AsRef<Path>) -> Result<u64, SnapshotError> {
        let bytes = self.store.read_range(0..self.store.len(), "archive")?;
        std::fs::write(path, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Boots generation `epoch` from a `.psa` archive: one bulk read and
    /// per-section chunk decoding instead of a world rebuild. The cached
    /// figure JSON is re-stamped with this generation's epoch; everything
    /// else is byte-identical to the snapshot that was saved.
    ///
    /// `backend` picks the byte-store behind the big flat sections:
    /// `Heap` keeps one resident buffer the arrays view into, `Paged`
    /// serves them from a bounded page cache over the file.
    pub fn load_archive(
        path: impl AsRef<Path>,
        epoch: u64,
        backend: SnapshotBackend,
    ) -> Result<WorldSnapshot, SnapshotError> {
        let start = Instant::now();
        let world = perils_survey::snapshot::load_world_with(path, backend)?;
        let load = start.elapsed();
        let source = SnapshotSource::Loaded {
            archive_bytes: world.archive_bytes,
            load,
        };
        Ok(WorldSnapshot::from_loaded(
            world,
            epoch,
            load,
            IndexBuildStats::default(),
            source,
        ))
    }

    /// Time since this snapshot finished building.
    pub fn age(&self) -> Duration {
        self.built.elapsed()
    }
}

/// Rewrites the leading `{"epoch":N,` stamp of a cached figure document
/// (the exact prefix `render_figures` emits) to `epoch`. A document
/// without that prefix is returned unchanged — better to serve figures
/// with a stale stamp than to reject an otherwise valid archive.
fn restamp_figures_epoch(json: &str, epoch: u64) -> String {
    if let Some(rest) = json.strip_prefix("{\"epoch\":") {
        if let Some(comma) = rest.find(',') {
            if !rest[..comma].is_empty() && rest[..comma].bytes().all(|b| b.is_ascii_digit()) {
                return format!("{{\"epoch\":{epoch},{}", &rest[comma + 1..]);
            }
        }
    }
    json.to_string()
}

/// Renders the extended figure registry into one JSON document:
/// `{"epoch":N,"figures":[..],"skipped":[{"id","missing"}]}`. Missing
/// columns are skips, not errors — mirroring the figures CLI.
fn render_figures(report: &perils_survey::engine::SurveyReport, epoch: u64) -> (String, usize) {
    let registry = FigureRegistry::extended();
    let outcomes = registry.build_all(report);
    let mut figures = String::new();
    let mut skipped = String::new();
    let mut rendered = 0usize;
    for outcome in &outcomes {
        match outcome {
            FigureOutcome::Rendered(figure) => {
                if rendered > 0 {
                    figures.push(',');
                }
                figures.push_str(&figure.json());
                rendered += 1;
            }
            FigureOutcome::Skipped { id, missing } => {
                if !skipped.is_empty() {
                    skipped.push(',');
                }
                skipped.push_str("{\"id\":");
                perils_util::json::push_json_string(&mut skipped, id);
                skipped.push_str(",\"missing\":[");
                for (i, column) in missing.iter().enumerate() {
                    if i > 0 {
                        skipped.push(',');
                    }
                    perils_util::json::push_json_string(&mut skipped, column);
                }
                skipped.push_str("]}");
            }
            FigureOutcome::Failed { id, error } => {
                if !skipped.is_empty() {
                    skipped.push(',');
                }
                skipped.push_str("{\"id\":");
                perils_util::json::push_json_string(&mut skipped, id);
                skipped.push_str(",\"error\":");
                perils_util::json::push_json_string(&mut skipped, &error.to_string());
                skipped.push('}');
            }
        }
    }
    (
        format!("{{\"epoch\":{epoch},\"figures\":[{figures}],\"skipped\":[{skipped}]}}"),
        rendered,
    )
}

/// The atomically swappable current snapshot.
///
/// Readers pay one `Arc` clone under a read lock; the swap replaces the
/// `Arc` under the write lock in O(1) — an in-flight query keeps its
/// generation alive through its own refcount until it finishes.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<WorldSnapshot>>,
}

impl SnapshotStore {
    /// Wraps the boot snapshot.
    pub fn new(snapshot: WorldSnapshot) -> SnapshotStore {
        SnapshotStore {
            current: RwLock::new(Arc::new(snapshot)),
        }
    }

    /// The current generation (cheap: refcount bump).
    pub fn current(&self) -> Arc<WorldSnapshot> {
        self.current.read().clone()
    }

    /// The current epoch without keeping the snapshot alive.
    pub fn epoch(&self) -> u64 {
        self.current.read().epoch
    }

    /// Publishes `next`, which must advance the epoch — the per-connection
    /// monotonicity the integration tests pin relies on this.
    ///
    /// # Panics
    ///
    /// Panics if `next.epoch` does not exceed the current epoch.
    pub fn swap(&self, next: WorldSnapshot) -> u64 {
        let next = Arc::new(next);
        let mut current = self.current.write();
        assert!(
            next.epoch > current.epoch,
            "snapshot epoch must advance: {} -> {}",
            current.epoch,
            next.epoch
        );
        let epoch = next.epoch;
        *current = next;
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> WorldSpec {
        WorldSpec::parse("tiny", 7).expect("tiny parses")
    }

    #[test]
    fn builds_tiny_snapshot_with_figures() {
        let snap = WorldSnapshot::build(&tiny_spec(), 1, 2, true);
        assert_eq!(snap.epoch, 1);
        assert!(snap.stats.names > 0);
        assert!(snap.stats.figures > 0);
        let json = snap.figures_json.as_deref().expect("figures cached");
        let value = perils_util::json::parse(json).expect("figures JSON parses");
        assert_eq!(value.get("epoch").and_then(|v| v.as_u64()), Some(1));
        assert!(
            value
                .get("figures")
                .and_then(|v| v.as_array())
                .map(|a| a.len())
                == Some(snap.stats.figures)
        );
    }

    #[test]
    fn no_figures_skips_the_sweep_but_keeps_names() {
        let snap = WorldSnapshot::build(&tiny_spec(), 1, 1, false);
        assert!(snap.figures_json.is_none());
        assert_eq!(snap.stats.figures, 0);
        assert!(!snap.names.is_empty());
    }

    #[test]
    fn snapshot_is_thread_count_invariant() {
        let one = WorldSnapshot::build(&tiny_spec(), 1, 1, true);
        let eight = WorldSnapshot::build(&tiny_spec(), 1, 8, true);
        assert_eq!(one.universe, eight.universe);
        assert_eq!(one.figures_json, eight.figures_json);
    }

    #[test]
    fn store_swap_advances_epoch_and_readers_hold_old_generations() {
        let store = SnapshotStore::new(WorldSnapshot::build(&tiny_spec(), 1, 1, false));
        let held = store.current();
        assert_eq!(
            store.swap(WorldSnapshot::build(&tiny_spec(), 2, 1, false)),
            2
        );
        assert_eq!(held.epoch, 1, "in-flight reader keeps its generation");
        assert_eq!(store.epoch(), 2);
    }

    #[test]
    #[should_panic(expected = "epoch must advance")]
    fn store_rejects_stale_epochs() {
        let store = SnapshotStore::new(WorldSnapshot::build(&tiny_spec(), 3, 1, false));
        store.swap(WorldSnapshot::build(&tiny_spec(), 3, 1, false));
    }

    fn temp_psa(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("perilsd_test_{tag}_{}.psa", std::process::id()))
    }

    #[test]
    fn archive_round_trip_is_identical_with_restamped_epoch() {
        let built = WorldSnapshot::build(&tiny_spec(), 1, 2, true);
        let path = temp_psa("roundtrip");
        let bytes = built.save_archive(&path).expect("saves");
        assert!(bytes > 0);
        let loaded = WorldSnapshot::load_archive(&path, 5, SnapshotBackend::Heap).expect("loads");
        // A paged boot over the same archive answers identically from a
        // two-page cache budget.
        let paged =
            WorldSnapshot::load_archive(&path, 5, SnapshotBackend::paged(8192)).expect("loads");
        // A loaded world saves the file it was booted from, verbatim.
        let resaved = temp_psa("resaved");
        assert_eq!(paged.save_archive(&resaved).expect("saves"), bytes);
        let same = std::fs::read(&resaved).ok() == std::fs::read(&path).ok();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&resaved).ok();
        assert!(same, "a loaded world re-saves its archive byte for byte");
        assert_eq!(built.store.kind(), "heap");
        assert_eq!(
            built.store.resident_bytes(),
            bytes,
            "a built world is its archive"
        );
        assert_eq!(loaded.store.kind(), "heap");
        assert_eq!(paged.store.kind(), "paged");
        assert_eq!(paged.universe, loaded.universe);
        assert_eq!(paged.index, loaded.index);
        assert_eq!(paged.figures_json, loaded.figures_json);
        assert_eq!(loaded.epoch, 5);
        assert_eq!(loaded.universe, built.universe);
        assert_eq!(loaded.index, built.index);
        assert_eq!(loaded.lint, built.lint);
        assert_eq!(loaded.names, built.names);
        assert_eq!(loaded.top500, built.top500);
        assert_eq!(loaded.stats.figures, built.stats.figures);
        assert_eq!(loaded.stats.source.kind(), "loaded");
        // The figure document is byte-identical except the epoch stamp.
        let built_json = built.figures_json.as_deref().expect("built figures");
        let loaded_json = loaded.figures_json.as_deref().expect("loaded figures");
        assert_eq!(loaded_json, restamp_figures_epoch(built_json, 5));
        assert_eq!(restamp_figures_epoch(loaded_json, 1), built_json);
    }

    #[test]
    fn load_archive_rejects_garbage_with_typed_error() {
        let path = temp_psa("garbage");
        std::fs::write(&path, b"definitely not a snapshot archive").expect("writes");
        let err =
            WorldSnapshot::load_archive(&path, 1, SnapshotBackend::Heap).expect_err("rejected");
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("not a perils snapshot archive"));
    }

    #[test]
    fn restamp_rewrites_only_the_epoch_prefix() {
        assert_eq!(
            restamp_figures_epoch("{\"epoch\":12,\"figures\":[]}", 3),
            "{\"epoch\":3,\"figures\":[]}"
        );
        let unstamped = "{\"figures\":[]}";
        assert_eq!(restamp_figures_epoch(unstamped, 3), unstamped);
    }
}
