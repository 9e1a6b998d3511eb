//! Whole-world `.psa` archives and the [`World`] they decode to: one file
//! holding everything a query daemon, figure run or lint run needs — the
//! canonical [`Universe`], its [`DependencyIndex`], the shared
//! [`LintIndex`] facts, the surveyed names with their popularity
//! structure, and (optionally) the rendered figure JSON — so a restart is
//! a bulk read instead of a rebuild.
//!
//! A world is its archive. [`WorldSpec::build`](crate::WorldSpec::build)
//! writes the sections below in order into one buffer (the writer is
//! `write_world`; [`world_archive_bytes`] runs it over prebuilt parts),
//! and every world — built or opened by [`load_world_with`] — comes out
//! of the one decoder here as a [`World`] over the archive's bytes, which
//! [`World::save`] writes back verbatim.
//!
//! Layout (all sections little-endian, checksummed by the container):
//!
//! | tag        | contents                                             |
//! |------------|------------------------------------------------------|
//! | `WORLDHDR` | dimensions + figure count, cross-checked on load     |
//! | `UNIVERSE` | zones, servers, ancestor tables                      |
//! | `DEPINDEX` | home zones, dependency rows, SCC map, interner arenas|
//! | `LINTIDX`  | depth/cycle index, liveness, reachability, referenced|
//! | `SURVNAME` | surveyed names, ranks, top-500 indices               |
//! | `FIGURES`  | rendered figure JSON (optional, stored verbatim)     |
//!
//! Loading validates each section against the universe's dimensions (see
//! [`perils_core::snapshot`]) and cross-checks the header, so corrupt or
//! mismatched archives produce a typed [`SnapshotError`], never a panic.

use crate::topology::SurveyName;
use perils_core::snapshot::{
    decode_dep_index, decode_lint, decode_name, decode_universe, encode_dep_index, encode_lint,
    encode_name, encode_universe, validate_name, SECTION_DEP_INDEX, SECTION_LINT, SECTION_UNIVERSE,
};
use perils_core::universe::Universe;
use perils_core::{DependencyIndex, LintIndex};
use perils_util::bytestore::ByteStore;
use perils_util::snapshot::{self, Archive, ArchiveWriter, Dec, Section, SnapshotError};
use std::borrow::Borrow;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Section tag for the world header (dimension cross-checks).
pub const SECTION_HEADER: [u8; 8] = *b"WORLDHDR";
/// Section tag for the surveyed-name list.
pub const SECTION_NAMES: [u8; 8] = *b"SURVNAME";
/// Section tag for the rendered figure JSON (optional).
pub const SECTION_FIGURES: [u8; 8] = *b"FIGURES\0";

/// Default page size for [`SnapshotBackend::paged`]: one typical OS page
/// per cache slot.
pub const DEFAULT_PAGE_BYTES: usize = 4096;

/// Where [`load_world_with`] keeps the archive bytes the loaded world's
/// views read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotBackend {
    /// Keep the whole archive resident once as `Arc<[u8]>`; the big flat
    /// tables become zero-copy views borrowing it.
    Heap,
    /// Leave the archive on disk behind a fixed-budget page cache; views
    /// fault bytes in on demand, so resident memory is the cache plus the
    /// eagerly decoded sections, not the world.
    Paged {
        /// Bytes per cache page.
        page_bytes: usize,
        /// Total cache budget in bytes (clamped to two pages).
        budget_bytes: u64,
    },
}

impl SnapshotBackend {
    /// A paged backend with [`DEFAULT_PAGE_BYTES`] pages.
    pub fn paged(budget_bytes: u64) -> SnapshotBackend {
        SnapshotBackend::Paged {
            page_bytes: DEFAULT_PAGE_BYTES,
            budget_bytes,
        }
    }

    /// Stable label for logs and metrics: `"heap"` or `"paged"`.
    pub fn kind(&self) -> &'static str {
        match self {
            SnapshotBackend::Heap => "heap",
            SnapshotBackend::Paged { .. } => "paged",
        }
    }
}

/// Upper bound on one encoded `SURVNAME` record: two names (a name's
/// encoding — count byte plus per-label length and content bytes — is
/// exactly its wire length, capped at
/// [`perils_dns::name::MAX_NAME_LEN`]) plus the `u32` rank.
const MAX_NAME_RECORD_BYTES: usize = 2 * perils_dns::name::MAX_NAME_LEN + 4;

/// The surveyed-name list of a world: record boundaries into the
/// `SURVNAME` section of its archive, established by a full validation
/// walk at load time. Records decode on demand from the byte store — the
/// dominant cost *and* resident footprint of the section disappears from
/// the load, and a paged daemon serving `/names` touches only the pages
/// the response needs. Per-access decodes cannot fail (enforced with the
/// same changed-on-disk panic contract as [`ByteStore::read`]).
#[derive(Clone)]
pub struct NameTable {
    store: Arc<ByteStore>,
    /// Absolute offset of the section payload in the store.
    base: u64,
    /// Section-relative record boundaries: record `i` spans
    /// `bounds[i]..bounds[i + 1]` (count + 1 entries).
    bounds: Arc<Vec<u32>>,
}

/// Decodes one name/tld/rank record (see [`write_world`]).
fn decode_record(dec: &mut Dec<'_>) -> Result<SurveyName, SnapshotError> {
    Ok(SurveyName {
        name: decode_name(dec)?,
        tld: decode_name(dec)?,
        popularity_rank: dec.u32()? as usize,
    })
}

impl NameTable {
    /// Number of surveyed names.
    pub fn len(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// True when no names were surveyed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th entry (panics out of bounds, like indexing).
    pub fn get(&self, i: usize) -> SurveyName {
        let start = self.bounds[i] as usize;
        let len = self.bounds[i + 1] as usize - start;
        let mut buf = [0u8; MAX_NAME_RECORD_BYTES];
        let buf = &mut buf[..len];
        self.store.read(self.base + start as u64, buf);
        let mut dec = Dec::new_at(buf, "SURVNAME", self.base + start as u64);
        decode_record(&mut dec)
            .expect("SURVNAME record validated at load no longer decodes (file changed on disk?)")
    }

    /// The first entry, if any.
    pub fn first(&self) -> Option<SurveyName> {
        (!self.is_empty()).then(|| self.get(0))
    }

    /// Iterates entries in survey order.
    pub fn iter(&self) -> impl Iterator<Item = SurveyName> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Every entry as an owned vec, decoded with one bulk read instead
    /// of per-record store round-trips.
    pub fn to_vec(&self) -> Vec<SurveyName> {
        let count = self.len();
        if count == 0 {
            return Vec::new();
        }
        let start = self.bounds[0] as u64;
        let end = self.bounds[count] as u64;
        let bytes = self
            .store
            .read_range(self.base + start..self.base + end, "SURVNAME records")
            .expect("SURVNAME records validated at load no longer read (file changed on disk?)");
        let mut dec = Dec::new_at(&bytes, "SURVNAME", self.base + start);
        (0..count)
            .map(|_| {
                decode_record(&mut dec).expect(
                    "SURVNAME record validated at load no longer decodes (file changed on disk?)",
                )
            })
            .collect()
    }
}

impl fmt::Debug for NameTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NameTable")
            .field("len", &self.len())
            .finish()
    }
}

impl PartialEq for NameTable {
    fn eq(&self, other: &NameTable) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl PartialEq<[SurveyName]> for NameTable {
    fn eq(&self, other: &[SurveyName]) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a == *b)
    }
}

impl PartialEq<Vec<SurveyName>> for NameTable {
    fn eq(&self, other: &Vec<SurveyName>) -> bool {
        self == other.as_slice()
    }
}

/// A world: universe, dependency index, lint facts and surveyed names,
/// decoded from the `.psa` archive in [`World::store`] (the index's flat
/// tables and the name table are views into it). Built by
/// [`WorldSpec::build`](crate::WorldSpec::build) or opened by
/// [`load_world_with`], it is the same value, and [`World::save`] writes
/// it back as the archive it is.
#[derive(Debug)]
pub struct World {
    /// The canonical universe.
    pub universe: Universe,
    /// Its dependency index, validated against the universe.
    pub index: DependencyIndex,
    /// The shared lint facts, validated against the universe.
    pub lint: LintIndex,
    /// The surveyed names, in survey order.
    pub names: NameTable,
    /// Indices into `names` of the most popular subset.
    pub top500: Vec<usize>,
    /// How many figures the archived figure JSON holds (0 without one).
    pub figures_rendered: usize,
    /// The archive byte store the view-backed structures borrow. Exposes
    /// backend kind (`"heap"`/`"paged"`), size, resident bytes and
    /// page-cache counters for metrics.
    pub store: Arc<ByteStore>,
    /// The `FIGURES` section, checked to be UTF-8 at load.
    figures: Option<Section>,
}

impl World {
    /// The rendered figure JSON stored at save time, verbatim.
    pub fn figures_json(&self) -> Option<String> {
        self.figures.as_ref().map(|section| {
            let bytes = section
                .to_vec()
                .expect("FIGURES validated at load no longer reads (file changed on disk?)");
            String::from_utf8(bytes).expect("FIGURES validated as UTF-8 at load")
        })
    }

    /// Writes this world as a `.psa` archive; returns the bytes written.
    /// A world is its archive, so this writes the store's bytes as they
    /// are: a built world's are what [`world_archive_bytes`] encodes, and
    /// a loaded world's are the file it was opened from (a daemon's
    /// figure JSON keeps the epoch stamp it was saved with; the daemon
    /// re-stamps it on every load).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<u64, SnapshotError> {
        let bytes = self.store.read_range(0..self.store.len(), "archive")?;
        std::fs::write(path, &bytes)?;
        Ok(bytes.len() as u64)
    }
}

/// Writes a world's sections into one archive buffer in their fixed
/// order. The index (owned or borrowed) is dropped once `DEPINDEX` is
/// written; only then does `lint` produce the lint facts, dropped once
/// `LINTIDX` is written. `figures` is the figure JSON and its count.
pub(crate) fn write_world<L: Borrow<LintIndex>>(
    universe: &Universe,
    index: impl Borrow<DependencyIndex>,
    lint: impl FnOnce() -> L,
    names: &[SurveyName],
    top500: &[usize],
    figures: Option<(&str, usize)>,
) -> Vec<u8> {
    let count =
        |n: usize, what: &str| u32::try_from(n).unwrap_or_else(|_| panic!("{what} count fits u32"));
    let mut archive = ArchiveWriter::new(5 + usize::from(figures.is_some()));
    archive.section(SECTION_HEADER, |out| {
        snapshot::put_u32(out, count(universe.zone_count(), "zone"));
        snapshot::put_u32(out, count(universe.server_count(), "server"));
        snapshot::put_u32(out, count(names.len(), "name"));
        snapshot::put_u32(out, count(figures.map_or(0, |(_, n)| n), "figure"));
        snapshot::put_u8(out, u8::from(figures.is_some()));
    });
    archive.section(SECTION_UNIVERSE, |out| encode_universe(out, universe));
    archive.section(SECTION_DEP_INDEX, |out| {
        encode_dep_index(out, index.borrow())
    });
    drop(index);
    let lint = lint();
    archive.section(SECTION_LINT, |out| encode_lint(out, lint.borrow()));
    drop(lint);
    archive.section(SECTION_NAMES, |out| {
        let start = out.len();
        snapshot::put_u32(out, count(names.len(), "name"));
        for entry in names {
            encode_name(out, &entry.name);
            encode_name(out, &entry.tld);
            snapshot::put_u32(
                out,
                u32::try_from(entry.popularity_rank).expect("rank fits u32"),
            );
        }
        let top500: Vec<u32> = top500
            .iter()
            .map(|&i| u32::try_from(i).expect("top500 index fits u32"))
            .collect();
        snapshot::put_u32_slice(out, &top500);
        assert!(
            u32::try_from(out.len() - start).is_ok(),
            "SURVNAME section exceeds the 4 GiB record-offset range"
        );
    });
    if let Some((json, _)) = figures {
        archive.section(SECTION_FIGURES, |out| {
            out.extend_from_slice(json.as_bytes())
        });
    }
    archive.finish()
}

/// Serializes a world from separately built parts (see the module table
/// for the layout) — the same bytes [`WorldSpec::build`](crate::WorldSpec::build)
/// writes for that world.
pub fn world_archive_bytes(
    universe: &Universe,
    index: &DependencyIndex,
    lint: &LintIndex,
    names: &[SurveyName],
    top500: &[usize],
    figures: Option<(&str, usize)>,
) -> Vec<u8> {
    write_world(universe, index, || lint, names, top500, figures)
}

/// [`world_archive_bytes`] written to `path`; returns the bytes written.
pub fn save_world(
    path: impl AsRef<Path>,
    universe: &Universe,
    index: &DependencyIndex,
    lint: &LintIndex,
    names: &[SurveyName],
    top500: &[usize],
    figures: Option<(&str, usize)>,
) -> Result<u64, SnapshotError> {
    let bytes = world_archive_bytes(universe, index, lint, names, top500, figures);
    std::fs::write(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Loads a world from in-memory archive bytes: they stay resident once
/// and the big flat tables become views borrowing them.
pub fn load_world_bytes(bytes: Vec<u8>) -> Result<World, SnapshotError> {
    load_world_archive(&Archive::from_bytes(bytes)?)
}

/// Opens a world from a `.psa` file through the chosen backend.
pub fn load_world_with(
    path: impl AsRef<Path>,
    backend: SnapshotBackend,
) -> Result<World, SnapshotError> {
    let archive = match backend {
        SnapshotBackend::Heap => Archive::read_from_path(path)?,
        SnapshotBackend::Paged {
            page_bytes,
            budget_bytes,
        } => Archive::open_paged(path, page_bytes, budget_bytes)?,
    };
    load_world_archive(&archive)
}

fn load_world_archive(archive: &Archive) -> Result<World, SnapshotError> {
    let header_sec = archive.section(SECTION_HEADER)?;
    let header_bytes = header_sec.bytes()?;
    let mut header = Dec::new_at(&header_bytes, "WORLDHDR", header_sec.base());
    let zone_count = header.u32()? as usize;
    let server_count = header.u32()? as usize;
    let name_count = header.u32()? as usize;
    let figures_rendered = header.u32()? as usize;
    let has_figures = match header.u8()? {
        0 => false,
        1 => true,
        other => return Err(header.malformed(format!("figure flag {other} is not 0/1"))),
    };
    header.finish()?;

    let universe = decode_universe(&archive.section(SECTION_UNIVERSE)?)?;
    if universe.zone_count() != zone_count || universe.server_count() != server_count {
        return Err(Dec::new(&[], "WORLDHDR").malformed(format!(
            "header declares {zone_count} zones / {server_count} servers, universe holds {} / {}",
            universe.zone_count(),
            universe.server_count()
        )));
    }
    let index = decode_dep_index(&archive.section(SECTION_DEP_INDEX)?, &universe)?;
    let lint = decode_lint(&archive.section(SECTION_LINT)?, &universe)?;

    let (names, top500) = decode_names(&archive.section(SECTION_NAMES)?, name_count)?;

    let figures = archive.optional_section(SECTION_FIGURES);
    if let Some(section) = &figures {
        std::str::from_utf8(&section.bytes()?)
            .map_err(|e| Dec::new(&[], "FIGURES").malformed(format!("not UTF-8: {e}")))?;
    }
    if figures.is_some() != has_figures {
        return Err(Dec::new(&[], "WORLDHDR")
            .malformed("figure flag disagrees with FIGURES section presence".to_string()));
    }

    Ok(World {
        universe,
        index,
        lint,
        names,
        top500,
        figures_rendered,
        store: archive.store().clone(),
        figures,
    })
}

/// Decodes the `SURVNAME` section: the name table plus top-500 indices.
///
/// Every record is *validated* (same checks, same bytes consumed as a
/// decode — see [`perils_core::snapshot::validate_name`]) and only the
/// record boundaries are kept, so names decode lazily from the store.
/// Boundaries are `u32`, so a section past 4 GiB is rejected (no real
/// archive is close; [`world_archive_bytes`] never writes one).
fn decode_names(
    section: &Section,
    name_count: usize,
) -> Result<(NameTable, Vec<usize>), SnapshotError> {
    let payload = section.bytes()?;
    let payload = &payload[..];
    let mut dec = Dec::new_at(payload, "SURVNAME", section.base());
    let count = dec.u32()? as usize;
    if count != name_count {
        return Err(dec.malformed(format!(
            "header declares {name_count} names, section holds {count}"
        )));
    }
    if payload.len() > u32::MAX as usize {
        return Err(dec.malformed(format!(
            "section of {} bytes exceeds the 4 GiB record-offset range",
            payload.len()
        )));
    }
    let mut bounds = Vec::with_capacity(count.min(dec.remaining()) + 1);
    for _ in 0..count {
        bounds.push((payload.len() - dec.remaining()) as u32);
        validate_name(&mut dec)?;
        validate_name(&mut dec)?;
        dec.u32()?;
    }
    bounds.push((payload.len() - dec.remaining()) as u32);
    let names = NameTable {
        store: section.store().clone(),
        base: section.base(),
        bounds: Arc::new(bounds),
    };
    let top500: Vec<usize> = dec.u32_vec()?.into_iter().map(|i| i as usize).collect();
    if let Some(&bad) = top500.iter().find(|&&i| i >= names.len()) {
        return Err(dec.malformed(format!("top500 index {bad} of {} names", names.len())));
    }
    dec.finish()?;
    Ok((names, top500))
}
