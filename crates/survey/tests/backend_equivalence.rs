//! Backend-equivalence contract, property-tested: for random synthetic
//! seeds, the paged backend must reconstruct the *byte-identical* world
//! the heap backend sees — across page sizes spanning two orders of
//! magnitude and cache budgets squeezed all the way down to two pages
//! (the `ByteStore` floor, where every bulk read thrashes). Equality is
//! proven at the byte level by re-encoding each loaded world and
//! comparing archives. Truncations landing mid-page must surface a typed
//! `SnapshotError` from the paged open, never a panic and never a world.

#![forbid(unsafe_code)]

use proptest::prelude::*;

use perils_core::{DependencyIndex, LintIndex};
use perils_survey::engine::WorldSource;
use perils_survey::params::TopologyParams;
use perils_survey::snapshot::world_archive_bytes;
use perils_survey::{LoadedWorld, SnapshotBackend, SyntheticSource};

/// Page sizes under test: well below, at, and well above the OS page.
const PAGE_SIZES: [usize; 3] = [512, 4096, 65536];

/// Writes `bytes` to a unique temp file and returns its path (cleaned up
/// by [`TempArchive::drop`], so failing tests don't litter `/tmp`).
struct TempArchive(std::path::PathBuf);

impl TempArchive {
    fn new(bytes: &[u8], tag: &str) -> TempArchive {
        let path = std::env::temp_dir().join(format!(
            "perils_backend_eq_{}_{tag}.psa",
            std::process::id()
        ));
        std::fs::write(&path, bytes).expect("write temp archive");
        TempArchive(path)
    }
}

impl Drop for TempArchive {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Re-encodes a loaded world into archive bytes — the byte-level
/// fingerprint two backends must agree on. (The encoder is
/// deterministic, so equal fingerprints mean equal worlds down to every
/// label byte and rank.)
fn fingerprint(loaded: &LoadedWorld) -> Vec<u8> {
    world_archive_bytes(
        &loaded.universe,
        &loaded.index,
        &loaded.lint,
        &loaded.names.to_vec(),
        &loaded.top500,
        loaded
            .figures_json
            .as_deref()
            .map(|j| (j, loaded.figures_rendered)),
    )
}

fn archive_bytes(seed: u64) -> Vec<u8> {
    let world = SyntheticSource {
        params: TopologyParams::tiny(seed),
    }
    .load();
    let index = DependencyIndex::build(&world.universe);
    let lint = LintIndex::build(&world.universe);
    world_archive_bytes(
        &world.universe,
        &index,
        &lint,
        &world.names,
        &world.top500,
        Some(("{\"epoch\":7,\"figures\":[]}", 0)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Heap and paged decodes agree byte-for-byte for every page size
    /// and for budgets from a quarter of the archive down to two pages.
    #[test]
    fn heap_and_paged_worlds_are_byte_identical(seed in 0u64..10_000) {
        let bytes = archive_bytes(seed);
        let archive = TempArchive::new(&bytes, &format!("prop{seed}"));

        let heap = perils_survey::load_world_with(&archive.0, SnapshotBackend::Heap)
            .expect("heap load");
        let heap_print = fingerprint(&heap);

        for page_bytes in PAGE_SIZES {
            // Two pages is the cache floor: every read_range larger than
            // one page evicts, so lazy name decodes thrash honestly.
            let budgets = [2 * page_bytes as u64, (bytes.len() as u64 / 4).max(1)];
            for budget_bytes in budgets {
                let paged = perils_survey::load_world_with(
                    &archive.0,
                    SnapshotBackend::Paged { page_bytes, budget_bytes },
                )
                .expect("paged load");
                prop_assert_eq!(
                    &fingerprint(&paged),
                    &heap_print,
                    "paged world (page {} B, budget {} B) differs from heap",
                    page_bytes,
                    budget_bytes
                );
                // Spot-check the lazy accessors against the heap table,
                // including the last record (the tail-page case).
                prop_assert_eq!(paged.names.len(), heap.names.len());
                if !paged.names.is_empty() {
                    let last = paged.names.len() - 1;
                    prop_assert_eq!(paged.names.get(0), heap.names.get(0));
                    prop_assert_eq!(paged.names.get(last), heap.names.get(last));
                }
            }
        }
    }

    /// Truncating the file mid-page (any cut point, never page-aligned
    /// by construction of the sample) makes the paged open a typed
    /// error for every page size — never a panic, never a world.
    #[test]
    fn mid_page_truncation_is_a_typed_error(seed in 0u64..100, cut in 1usize..4096) {
        let bytes = archive_bytes(seed);
        // Map the cut into (0, len) and nudge it off 512-byte alignment
        // so it lands mid-page for every size under test.
        let mut cut = 1 + cut % (bytes.len() - 1);
        if cut.is_multiple_of(512) {
            cut -= 1;
        }
        let archive = TempArchive::new(&bytes[..cut], &format!("trunc{seed}_{cut}"));

        for page_bytes in PAGE_SIZES {
            let result = perils_survey::load_world_with(
                &archive.0,
                SnapshotBackend::Paged {
                    page_bytes,
                    budget_bytes: 2 * page_bytes as u64,
                },
            );
            prop_assert!(
                result.is_err(),
                "truncation to {} of {} bytes loaded anyway (page {} B)",
                cut,
                bytes.len(),
                page_bytes
            );
        }
    }
}

/// The flattened min-cut — the answer's and the `choke-point` rule's —
/// and the choke-point witness read nothing from the byte store: server
/// chains come from the universe's parent links, which live on the heap
/// on every backend. Closures are computed outside the measured window
/// (they do read the index's paged tables), so any store read the cut
/// kernel gains shows up as a moved page counter. Every cut's first
/// server stands in for a choke, so the witness runs on every name with
/// a non-empty cut.
#[test]
fn the_min_cut_touches_no_page() {
    use perils_core::hijack::{choke_witness, min_cut_flattened_view};

    let bytes = archive_bytes(11);
    let archive = TempArchive::new(&bytes, "cut_pages");
    let page_bytes = 512;
    let world = perils_survey::load_world_with(
        &archive.0,
        SnapshotBackend::Paged {
            page_bytes,
            budget_bytes: 4 * page_bytes as u64,
        },
    )
    .expect("paged load");
    let touches = || {
        let c = world.store.cache_counters();
        c.hits + c.misses
    };
    let (universe, index) = (&world.universe, &world.index);
    let mut ws = index.workspace();
    let (mut cuts, mut witnesses, mut view_touches) = (0usize, 0usize, 0u64);
    for survey_name in world.names.iter() {
        let before_view = touches();
        let view = index.closure_view(universe, &survey_name.name, &mut ws);
        let before = touches();
        view_touches += before - before_view;
        let cut = min_cut_flattened_view(universe, index, &view);
        let first = cut.as_ref().and_then(|cut| cut.servers.first().copied());
        let witness = first.map(|server| (server, choke_witness(universe, &view, server)));
        assert_eq!(
            touches(),
            before,
            "the cut of {} read the byte store",
            survey_name.name
        );
        cuts += usize::from(cut.is_some());
        if let Some((server, witness)) = witness {
            witnesses += 1;
            assert!(witness.contains(&server), "{}", survey_name.name);
        }
    }
    assert!(cuts > 0, "no name had a cut");
    assert!(witnesses > 0, "no witness ran");
    assert!(view_touches > 0, "the page counters never moved");
}

/// An archive written by the previous format (version 1, which still
/// carried per-zone chain rows) opens to the typed version error on both
/// backends — never a panic, never a world.
#[test]
fn version_1_archives_are_a_typed_error_on_both_backends() {
    use perils_util::snapshot::SnapshotError;

    let mut bytes = archive_bytes(11);
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let archive = TempArchive::new(&bytes, "version1");
    for backend in [SnapshotBackend::Heap, SnapshotBackend::paged(64 * 1024)] {
        let kind = backend.kind();
        match perils_survey::load_world_with(&archive.0, backend) {
            Err(err @ SnapshotError::UnsupportedVersion { found: 1 }) => assert!(
                err.to_string()
                    .contains("unsupported snapshot format version 1"),
                "{kind}: {err}"
            ),
            Err(other) => panic!("{kind}: expected the version error, got {other}"),
            Ok(_) => panic!("{kind}: a version-1 archive loaded"),
        }
    }
}
