//! The `.psa` ("perils snapshot archive") container: a versioned,
//! little-endian, sectioned flat format for persisting built worlds.
//!
//! An archive is a fixed header (magic, version, endianness tag), a
//! table of contents (one entry per section: 8-byte tag, offset, length,
//! FNV-1a checksum), and the section payloads concatenated. Sections are
//! flat arrays of fixed-width little-endian integers plus length-prefixed
//! byte runs, so loading is a handful of bulk reads — no per-record text
//! parsing, no graph traversal, and no `unsafe` (the workspace forbids
//! it): the chunk decoders below compile to memory-bandwidth copies
//! without mmap or transmute.
//!
//! Archives are read through a [`crate::bytestore::ByteStore`], and the
//! big flat arrays decode to [`crate::bytestore::U32View`]s into it,
//! so the same validated TOC serves both store backends: **heap** (the
//! archive stays resident once as `Arc<[u8]>` and the views borrow it)
//! and **paged** (the archive stays on disk behind a fixed-budget page
//! cache; views fault bytes in on demand).
//!
//! Every failure mode is a typed [`SnapshotError`] carrying the absolute
//! byte offset where decoding stopped: wrong magic, an unsupported
//! version, a byte-swapped (big-endian) header, truncation anywhere,
//! per-section checksum mismatches, and structural nonsense inside a
//! section (the per-type decoders in `perils-graph`/`perils-core` route
//! their findings through [`Dec::malformed`]/[`StoreDec::malformed`]).
//! Corrupt archives must never panic or yield silently wrong data — the
//! format-hardening tests flip and truncate bytes at every offset and
//! assert exactly that.

use crate::bytestore::{ByteStore, U32View};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Archive magic: identifies a `.psa` file regardless of version.
pub const MAGIC: [u8; 8] = *b"PSNAPARC";
/// Current format version. Readers reject anything else.
pub const VERSION: u32 = 5;
/// Endianness sentinel, written as a little-endian `u32`. A reader that
/// finds these bytes reversed is looking at a big-endian writer's
/// output (or garbage) and rejects it with a clear message.
pub const ENDIAN_TAG: u32 = 0x0A0B_0C0D;

/// Size of one table-of-contents entry: tag + offset + length + checksum.
const TOC_ENTRY: u64 = 8 + 8 + 8 + 8;
/// Size of the fixed header before the TOC.
const HEADER: u64 = 8 + 4 + 4 + 4;

/// FNV-1a offset basis (64-bit).
const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x100_0000_01B3;

/// A typed snapshot-archive failure. Every way a load can go wrong maps
/// to one of these — corrupt input is reported, never panicked on. Each
/// positional variant carries the absolute byte offset in the archive
/// where the problem was detected, so a report is actionable without a
/// hex dump.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic {
        /// The bytes found where the magic should be.
        found: [u8; 8],
    },
    /// The archive was written by a different format version.
    UnsupportedVersion {
        /// The version the archive declares.
        found: u32,
    },
    /// The endianness tag is byte-swapped: the archive was written
    /// big-endian (or the header is corrupt in a way that mimics it).
    BadEndianness,
    /// The file ends before the structure it promises.
    Truncated {
        /// What was being read when the bytes ran out.
        context: String,
        /// Absolute byte offset where data was needed but missing.
        offset: u64,
    },
    /// A section's payload does not hash to its TOC checksum.
    ChecksumMismatch {
        /// The section tag, as printable text.
        section: String,
        /// Absolute byte offset where the section's payload starts.
        offset: u64,
    },
    /// A required section is absent.
    MissingSection {
        /// The section tag, as printable text.
        section: String,
    },
    /// The same section tag appears twice in the TOC.
    DuplicateSection {
        /// The section tag, as printable text.
        section: String,
    },
    /// A section decoded to structurally invalid data (bad lengths,
    /// out-of-range ids, non-canonical flags, …).
    Malformed {
        /// The section tag, as printable text.
        section: String,
        /// Absolute byte offset in the archive where decoding stopped.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic { found } => write!(
                f,
                "not a perils snapshot archive (magic {:?}, expected {:?})",
                String::from_utf8_lossy(found),
                String::from_utf8_lossy(&MAGIC),
            ),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads version {VERSION})"
            ),
            SnapshotError::BadEndianness => write!(
                f,
                "snapshot archive is byte-swapped (written big-endian?); \
                 this reader only accepts little-endian archives"
            ),
            SnapshotError::Truncated { context, offset } => {
                write!(
                    f,
                    "snapshot archive truncated while reading {context} at byte {offset}"
                )
            }
            SnapshotError::ChecksumMismatch { section, offset } => {
                write!(
                    f,
                    "snapshot section {section:?} (payload at byte {offset}) failed its checksum"
                )
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "snapshot archive has no {section:?} section")
            }
            SnapshotError::DuplicateSection { section } => {
                write!(f, "snapshot archive lists section {section:?} twice")
            }
            SnapshotError::Malformed {
                section,
                offset,
                detail,
            } => write!(
                f,
                "snapshot section {section:?} is malformed at byte {offset}: {detail}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// Renders a section tag as printable text (trailing NULs trimmed).
pub fn tag_text(tag: [u8; 8]) -> String {
    let end = tag.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    String::from_utf8_lossy(&tag[..end]).into_owned()
}

/// FNV-1a folded over 8-byte little-endian words (tail bytes one at a
/// time) — the per-section checksum. Not cryptographic; it catches the
/// truncations and bit flips storage actually produces. Every fold is a
/// bijection of the running state (xor, then multiply by an odd
/// constant), so a single flipped bit anywhere always changes the final
/// sum, and word folding keeps the verify pass near memory bandwidth
/// instead of one multiply per byte.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut fold = ChecksumFold::new();
    fold.update(bytes);
    fold.finish()
}

/// Streaming form of [`checksum`]: feed bytes in arbitrary chunks and
/// the final sum is identical to the one-shot function — word boundaries
/// are tracked globally through a carry buffer, so a paged store can
/// verify a section page by page without materializing it.
#[derive(Debug, Clone)]
pub struct ChecksumFold {
    h: u64,
    pending: [u8; 8],
    pending_len: usize,
}

impl Default for ChecksumFold {
    fn default() -> ChecksumFold {
        ChecksumFold::new()
    }
}

impl ChecksumFold {
    /// A fresh fold (equal to `checksum(&[])` when finished untouched).
    pub fn new() -> ChecksumFold {
        ChecksumFold {
            h: FNV_BASIS,
            pending: [0u8; 8],
            pending_len: 0,
        }
    }

    /// Absorbs the next chunk.
    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.pending_len > 0 {
            let need = 8 - self.pending_len;
            let take = need.min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 8 {
                return;
            }
            let w = u64::from_le_bytes(self.pending);
            self.h = (self.h ^ w).wrapping_mul(FNV_PRIME);
            self.pending_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let w = u64::from_le_bytes(word.try_into().expect("exact 8-byte chunk"));
            self.h = (self.h ^ w).wrapping_mul(FNV_PRIME);
        }
        let rest = words.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// Finishes the fold, hashing any trailing bytes one at a time.
    pub fn finish(self) -> u64 {
        let mut h = self.h;
        for &b in &self.pending[..self.pending_len] {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        h
    }
}

/// Writes an archive straight into its final buffer: the header and a
/// zeroed table of contents for a fixed section count first, then each
/// section's payload appended in call order and its TOC entry patched in
/// place, so no payload is ever held twice.
#[derive(Debug)]
pub struct ArchiveWriter {
    out: Vec<u8>,
    tags: Vec<[u8; 8]>,
    sections: usize,
}

impl ArchiveWriter {
    /// An archive of exactly `sections` sections, none written yet.
    pub fn new(sections: usize) -> ArchiveWriter {
        let count = u32::try_from(sections).expect("section count fits u32");
        let mut out = [
            MAGIC.as_slice(),
            &VERSION.to_le_bytes(),
            &ENDIAN_TAG.to_le_bytes(),
            &count.to_le_bytes(),
        ]
        .concat();
        out.resize(HEADER as usize + TOC_ENTRY as usize * sections, 0);
        ArchiveWriter {
            out,
            tags: Vec::with_capacity(sections),
            sections,
        }
    }

    /// Appends section `tag`, whose payload `encode` writes onto the end
    /// of the archive buffer.
    ///
    /// # Panics
    ///
    /// Panics when `tag` was already written or the archive holds no
    /// further section — writer bugs, not input conditions.
    pub fn section(&mut self, tag: [u8; 8], encode: impl FnOnce(&mut Vec<u8>)) {
        assert!(
            !self.tags.contains(&tag),
            "duplicate snapshot section {:?}",
            tag_text(tag)
        );
        assert!(
            self.tags.len() < self.sections,
            "surplus snapshot section {:?}",
            tag_text(tag)
        );
        let start = self.out.len();
        encode(&mut self.out);
        let offset = start - (HEADER as usize + TOC_ENTRY as usize * self.sections);
        let len = self.out.len() - start;
        let sum = checksum(&self.out[start..]);
        let at = HEADER as usize + TOC_ENTRY as usize * self.tags.len();
        let entry = [
            tag,
            (offset as u64).to_le_bytes(),
            (len as u64).to_le_bytes(),
            sum.to_le_bytes(),
        ];
        self.out[at..at + TOC_ENTRY as usize].copy_from_slice(entry.as_flattened());
        self.tags.push(tag);
    }

    /// The finished archive.
    ///
    /// # Panics
    ///
    /// Panics unless every section the writer was opened for is written.
    pub fn finish(self) -> Vec<u8> {
        assert_eq!(self.tags.len(), self.sections, "snapshot sections missing");
        self.out
    }
}

/// One section of a parsed archive: an absolute byte range of the
/// store, already checksum-verified. Decoders either materialize it
/// ([`Section::bytes`]) or walk it in place ([`StoreDec`]).
#[derive(Debug, Clone)]
pub struct Section {
    store: Arc<ByteStore>,
    range: Range<u64>,
}

impl Section {
    /// Wraps loose bytes as a standalone heap-backed section starting at
    /// byte 0 — the compatibility path for encoders' unit tests and any
    /// caller decoding a payload outside an archive.
    pub fn from_vec(bytes: Vec<u8>) -> Section {
        let len = bytes.len() as u64;
        Section {
            store: Arc::new(ByteStore::heap(bytes)),
            range: 0..len,
        }
    }

    /// The section payload. Borrowed from heap stores; materialized
    /// (one bulk read) from paged stores.
    pub fn bytes(&self) -> Result<Cow<'_, [u8]>, SnapshotError> {
        match self.store.as_heap() {
            Some(all) => Ok(Cow::Borrowed(
                &all[self.range.start as usize..self.range.end as usize],
            )),
            None => Ok(Cow::Owned(
                self.store
                    .read_range(self.range.clone(), "section payload")?,
            )),
        }
    }

    /// Materializes the payload as an owned `Vec`.
    pub fn to_vec(&self) -> Result<Vec<u8>, SnapshotError> {
        self.store.read_range(self.range.clone(), "section payload")
    }

    /// Absolute byte offset of the payload's first byte — the base for
    /// decoder error offsets.
    pub fn base(&self) -> u64 {
        self.range.start
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        (self.range.end - self.range.start) as usize
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<ByteStore> {
        &self.store
    }
}

/// A parsed archive: a byte store plus a validated TOC. Checksums are
/// verified once at open (streamed, so a paged open never materializes
/// a section), so decoders downstream trust the bytes' integrity — they
/// still bounds-check every structural claim.
#[derive(Debug)]
pub struct Archive {
    store: Arc<ByteStore>,
    toc: Vec<([u8; 8], Range<u64>)>,
}

impl Archive {
    /// Parses an in-memory archive: the bytes stay resident once,
    /// decoded structures borrow them.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Archive, SnapshotError> {
        Archive::from_store(Arc::new(ByteStore::heap(bytes)))
    }

    /// One bulk read of `path`, then [`Archive::from_bytes`].
    pub fn read_from_path(path: impl AsRef<Path>) -> Result<Archive, SnapshotError> {
        Archive::from_bytes(std::fs::read(path)?)
    }

    /// Opens `path` behind a fixed-budget page cache: the archive stays
    /// on disk, resident bytes are the cache, and decoded structures
    /// fault pages in on demand. Header, TOC and every checksum are
    /// validated here by streaming — corrupt archives are rejected at
    /// open, exactly like the in-memory constructors.
    pub fn open_paged(
        path: impl AsRef<Path>,
        page_bytes: usize,
        budget_bytes: u64,
    ) -> Result<Archive, SnapshotError> {
        Archive::from_store(Arc::new(ByteStore::open_paged(
            path,
            page_bytes,
            budget_bytes,
        )?))
    }

    /// Validates header, TOC and per-section checksums over any store.
    pub fn from_store(store: Arc<ByteStore>) -> Result<Archive, SnapshotError> {
        let total = store.len();
        let need = |want: u64, context: &str| {
            if total < want {
                Err(SnapshotError::Truncated {
                    context: context.to_string(),
                    offset: total,
                })
            } else {
                Ok(())
            }
        };
        need(HEADER, "header")?;
        let header = store.read_range(0..HEADER, "header")?;
        let mut magic = [0u8; 8];
        magic.copy_from_slice(&header[..8]);
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic { found: magic });
        }
        let u32_at = |i: usize| u32::from_le_bytes(header[i..i + 4].try_into().expect("4 bytes"));
        let version = u32_at(8);
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let endian = u32_at(12);
        if endian != ENDIAN_TAG {
            if endian == ENDIAN_TAG.swap_bytes() {
                return Err(SnapshotError::BadEndianness);
            }
            return Err(SnapshotError::Truncated {
                context: "endianness tag".to_string(),
                offset: 12,
            });
        }
        let count = u32_at(16) as u64;
        let toc_end = HEADER + count * TOC_ENTRY;
        need(toc_end, "table of contents")?;
        let toc_raw = store.read_range(HEADER..toc_end, "table of contents")?;
        let payload_len = total - toc_end;
        let mut toc: Vec<([u8; 8], Range<u64>)> = Vec::with_capacity(count as usize);
        let mut checks = Vec::with_capacity(count as usize);
        for i in 0..count as usize {
            let at = i * TOC_ENTRY as usize;
            let mut tag = [0u8; 8];
            tag.copy_from_slice(&toc_raw[at..at + 8]);
            let u64_at =
                |j: usize| u64::from_le_bytes(toc_raw[j..j + 8].try_into().expect("8 bytes"));
            let offset = u64_at(at + 8);
            let len = u64_at(at + 16);
            let sum = u64_at(at + 24);
            let end = offset.checked_add(len).filter(|&e| e <= payload_len);
            let Some(end) = end else {
                return Err(SnapshotError::Truncated {
                    context: format!("section {:?} payload", tag_text(tag)),
                    offset: total,
                });
            };
            if toc.iter().any(|(t, _)| *t == tag) {
                return Err(SnapshotError::DuplicateSection {
                    section: tag_text(tag),
                });
            }
            let range = toc_end + offset..toc_end + end;
            toc.push((tag, range.clone()));
            checks.push((tag, range, sum));
        }
        for (tag, range, sum) in checks {
            let mut fold = ChecksumFold::new();
            store.try_for_chunks::<SnapshotError>(range.clone(), |chunk| {
                fold.update(chunk);
                Ok(())
            })?;
            if fold.finish() != sum {
                return Err(SnapshotError::ChecksumMismatch {
                    section: tag_text(tag),
                    offset: range.start,
                });
            }
        }
        Ok(Archive { store, toc })
    }

    /// A required section.
    pub fn section(&self, tag: [u8; 8]) -> Result<Section, SnapshotError> {
        self.optional_section(tag)
            .ok_or_else(|| SnapshotError::MissingSection {
                section: tag_text(tag),
            })
    }

    /// An optional section.
    pub fn optional_section(&self, tag: [u8; 8]) -> Option<Section> {
        self.toc
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, range)| Section {
                store: self.store.clone(),
                range: range.clone(),
            })
    }

    /// The section tags present, in TOC order.
    pub fn tags(&self) -> impl Iterator<Item = [u8; 8]> + '_ {
        self.toc.iter().map(|(t, _)| *t)
    }

    /// The backing store (shared with every decoded view).
    pub fn store(&self) -> &Arc<ByteStore> {
        &self.store
    }
}

// ---------------------------------------------------------------------
// Field encoders: little-endian, length-prefixed where variable.
// ---------------------------------------------------------------------

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `u32 len` + the elements as little-endian `u32`s.
pub fn put_u32_slice(out: &mut Vec<u8>, values: &[u32]) {
    put_u32(out, u32::try_from(values.len()).expect("slice fits u32"));
    out.reserve(values.len() * 4);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends `u32 len` + one byte per bool.
pub fn put_bool_slice(out: &mut Vec<u8>, values: &[bool]) {
    put_u32(out, u32::try_from(values.len()).expect("slice fits u32"));
    out.extend(values.iter().map(|&b| u8::from(b)));
}

/// A bounds-checked little-endian cursor over one section's payload.
///
/// Every read returns a typed error instead of panicking, and the bulk
/// readers ([`Dec::u32_vec`], [`Dec::bool_vec`]) verify the promised
/// length against the remaining bytes **before** allocating, so a
/// corrupt length can neither overrun nor balloon memory. `base` is the
/// payload's absolute archive offset, so error reports point into the
/// file, not into the section.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
    base: u64,
}

impl<'a> Dec<'a> {
    /// Wraps a standalone payload (absolute offsets start at 0).
    /// `section` labels errors.
    pub fn new(buf: &'a [u8], section: &'static str) -> Dec<'a> {
        Dec::new_at(buf, section, 0)
    }

    /// Wraps one section's payload whose first byte sits at absolute
    /// archive offset `base`.
    pub fn new_at(buf: &'a [u8], section: &'static str, base: u64) -> Dec<'a> {
        Dec {
            buf,
            pos: 0,
            section,
            base,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A typed malformed-section error at the current absolute offset.
    pub fn malformed(&self, detail: impl Into<String>) -> SnapshotError {
        SnapshotError::Malformed {
            section: self.section.to_string(),
            offset: self.base + self.pos as u64,
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(self.malformed(format!(
                "need {n} bytes for {what}, only {} left",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4, "u32")?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads exactly `n` raw bytes (borrowed).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n, "raw bytes")
    }

    /// Reads `u32 len` + `len` little-endian `u32`s — the chunked bulk
    /// decode every flat array loads through.
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let len = self.u32()? as usize;
        let raw = self.take(len * 4, "u32 array")?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Reads `u32 len` + one byte per bool; bytes other than 0/1 are
    /// malformed (a flipped flag byte must not decode silently).
    pub fn bool_vec(&mut self) -> Result<Vec<bool>, SnapshotError> {
        let len = self.u32()? as usize;
        let raw = self.take(len, "bool array")?;
        if let Some(bad) = raw.iter().position(|&b| b > 1) {
            return Err(self.malformed(format!("bool byte {bad} is {}", raw[bad])));
        }
        Ok(raw.iter().map(|&b| b == 1).collect())
    }

    /// Errors unless every byte was consumed — trailing garbage in a
    /// section is corruption, not padding.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(self.malformed(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

/// A bounds-checked little-endian cursor that walks a [`Section`] *in
/// the store* — the decode path for sections whose big flat arrays stay
/// as views. Length prefixes are read eagerly; the array reader hands
/// back [`U32View`]s that share the store (zero-copy for heap stores,
/// demand-paged for paged stores). Like [`Dec`], every promised length
/// is verified against the remaining bytes **before** any allocation,
/// and every error carries the absolute archive offset.
#[derive(Debug)]
pub struct StoreDec {
    store: Arc<ByteStore>,
    section: &'static str,
    end: u64,
    pos: u64,
}

impl StoreDec {
    /// Opens a cursor over `section`'s payload. `name` labels errors.
    pub fn new(section: &Section, name: &'static str) -> StoreDec {
        StoreDec {
            store: section.store().clone(),
            section: name,
            end: section.base() + section.len() as u64,
            pos: section.base(),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> u64 {
        self.end - self.pos
    }

    /// A typed malformed-section error at the current absolute offset.
    pub fn malformed(&self, detail: impl Into<String>) -> SnapshotError {
        SnapshotError::Malformed {
            section: self.section.to_string(),
            offset: self.pos,
            detail: detail.into(),
        }
    }

    /// Reserves `n` bytes, returning their absolute start offset.
    fn take(&mut self, n: u64, what: &str) -> Result<u64, SnapshotError> {
        if self.remaining() < n {
            return Err(self.malformed(format!(
                "need {n} bytes for {what}, only {} left",
                self.remaining()
            )));
        }
        let start = self.pos;
        self.pos += n;
        Ok(start)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let start = self.take(4, "u32")?;
        let mut raw = [0u8; 4];
        self.store.try_read(start, &mut raw, "u32")?;
        Ok(u32::from_le_bytes(raw))
    }

    /// Reads `u32 len` + `len` little-endian `u32`s as a view into the
    /// store.
    pub fn u32_arr(&mut self) -> Result<U32View, SnapshotError> {
        let len = self.u32()? as usize;
        let start = self.take(len as u64 * 4, "u32 array")?;
        Ok(U32View::new(self.store.clone(), start, len))
    }

    /// Errors unless every byte was consumed — trailing garbage in a
    /// section is corruption, not padding.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(self.malformed(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_archive() -> Vec<u8> {
        let mut w = ArchiveWriter::new(2);
        w.section(*b"ALPHA\0\0\0", |a| {
            put_u32_slice(a, &[1, 2, 3, 0xFFFF_FFFF]);
            put_bool_slice(a, &[true, false, true]);
        });
        w.section(*b"BETA\0\0\0\0", |b| {
            put_u32_slice(b, &[u32::MAX, 0, 42]);
            b.extend_from_slice(b"hello");
        });
        w.finish()
    }

    /// One section whose length prefix promises 4 billion `u32`s.
    fn huge_archive() -> Vec<u8> {
        let mut w = ArchiveWriter::new(1);
        w.section(*b"HUGE\0\0\0\0", |payload| put_u32(payload, u32::MAX));
        w.finish()
    }

    fn temp_archive(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("perils-snapshot-{name}-{}.psa", std::process::id()));
        std::fs::write(&p, bytes).expect("write temp archive");
        p
    }

    #[test]
    fn round_trips_sections_and_fields() {
        let archive = Archive::from_bytes(sample_archive()).expect("parses");
        assert_eq!(archive.tags().count(), 2);
        let sec = archive.section(*b"ALPHA\0\0\0").expect("alpha");
        let bytes = sec.bytes().expect("payload");
        let mut dec = Dec::new_at(&bytes, "ALPHA", sec.base());
        assert_eq!(dec.u32_vec().expect("u32s"), vec![1, 2, 3, 0xFFFF_FFFF]);
        assert_eq!(dec.bool_vec().expect("bools"), vec![true, false, true]);
        dec.finish().expect("fully consumed");
        let sec = archive.section(*b"BETA\0\0\0\0").expect("beta");
        let bytes = sec.bytes().expect("payload");
        let mut dec = Dec::new_at(&bytes, "BETA", sec.base());
        assert_eq!(dec.u32_vec().expect("u32s"), vec![u32::MAX, 0, 42]);
        assert_eq!(dec.raw(5).expect("bytes"), b"hello");
        dec.finish().expect("fully consumed");
        assert!(matches!(
            archive.section(*b"GAMMA\0\0\0"),
            Err(SnapshotError::MissingSection { .. })
        ));
    }

    #[test]
    fn paged_archive_parses_and_reads_identically() {
        let bytes = sample_archive();
        let path = temp_archive("paged-identical", &bytes);
        let heap = Archive::from_bytes(bytes).expect("heap parses");
        // Deliberately tiny pages and budget: every section read must
        // still assemble the same payload bytes.
        let paged = Archive::open_paged(&path, 64, 128).expect("paged parses");
        assert_eq!(paged.store().kind(), "paged");
        assert_eq!(heap.store().len(), paged.store().len());
        for tag in [*b"ALPHA\0\0\0", *b"BETA\0\0\0\0"] {
            let a = heap.section(tag).expect("heap section");
            let b = paged.section(tag).expect("paged section");
            assert_eq!(a.base(), b.base(), "sections sit at the same offset");
            assert_eq!(
                a.bytes().expect("heap payload"),
                b.bytes().expect("paged payload")
            );
        }
        let counters = paged.store().cache_counters();
        assert!(
            counters.misses > 0,
            "paged reads miss then fill: {counters:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_dec_views_match_the_encoded_values() {
        let mut w = ArchiveWriter::new(1);
        w.section(*b"ARR\0\0\0\0\0", |payload| {
            put_u32(payload, 77);
            put_u32_slice(payload, &[10, 20, 30, 40, 50]);
            put_u32_slice(payload, &[1, u32::MAX]);
        });
        let bytes = w.finish();

        let view_archive = Archive::from_bytes(bytes).expect("view parses");
        let mut view_dec = StoreDec::new(&view_archive.section(*b"ARR\0\0\0\0\0").unwrap(), "ARR");
        assert_eq!(view_dec.u32().expect("scalar"), 77);
        let v = view_dec.u32_arr().expect("view arr");
        assert_eq!(v.to_vec(), vec![10, 20, 30, 40, 50]);
        let w = view_dec.u32_arr().expect("second view arr");
        assert_eq!(w.to_vec(), vec![1, u32::MAX]);
        view_dec.finish().expect("consumed");
        // The views share the archive's store rather than copying it.
        assert!(Arc::ptr_eq(v.store(), view_archive.store()));
    }

    #[test]
    fn store_dec_errors_carry_absolute_offsets() {
        let archive = Archive::from_bytes(huge_archive()).expect("container valid");
        let sec = archive.section(*b"HUGE\0\0\0\0").expect("huge");
        assert!(sec.base() > 0, "payload sits after header + TOC");
        let mut dec = StoreDec::new(&sec, "HUGE");
        match dec.u32_arr() {
            Err(SnapshotError::Malformed { offset, .. }) => {
                assert_eq!(
                    offset,
                    sec.base() + 4,
                    "absolute offset past the length prefix"
                );
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        // Slice-based Dec reports the same absolute offsets.
        let bytes = sec.bytes().expect("payload");
        let mut dec = Dec::new_at(&bytes, "HUGE", sec.base());
        let _ = dec.u32().expect("length prefix");
        match dec.malformed("probe") {
            SnapshotError::Malformed { offset, .. } => assert_eq!(offset, sec.base() + 4),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn checksum_mismatch_reports_payload_offset() {
        let bytes = sample_archive();
        let archive = Archive::from_bytes(bytes.clone()).expect("valid");
        let sec = archive.section(*b"ALPHA\0\0\0").expect("alpha");
        let payload_at = sec.base();
        let mut bad = bytes;
        bad[payload_at as usize] ^= 0xFF;
        match Archive::from_bytes(bad) {
            Err(SnapshotError::ChecksumMismatch { section, offset }) => {
                assert_eq!(section, "ALPHA");
                assert_eq!(offset, payload_at);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_magic_version_and_endianness() {
        let good = sample_archive();
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Archive::from_bytes(bad_magic),
            Err(SnapshotError::BadMagic { .. })
        ));
        let mut bad_version = good.clone();
        bad_version[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Archive::from_bytes(bad_version),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        ));
        // Version 4 archives stored every zone's dependency row in
        // `DEPINDEX` and every server's banner in `UNIVERSE`, which version
        // 5 drops: they are refused by version, before any section is
        // read.
        let mut v4 = good.clone();
        v4[8..12].copy_from_slice(&4u32.to_le_bytes());
        let err = Archive::from_bytes(v4).expect_err("v4 rejected");
        assert!(matches!(
            err,
            SnapshotError::UnsupportedVersion { found: 4 }
        ));
        assert!(err.to_string().contains("reads version 5"), "{err}");
        let mut swapped = good.clone();
        swapped[12..16].copy_from_slice(&ENDIAN_TAG.to_be_bytes());
        let err = Archive::from_bytes(swapped).expect_err("swapped tag rejected");
        assert!(matches!(err, SnapshotError::BadEndianness));
        assert!(err.to_string().contains("little-endian"));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let good = sample_archive();
        for len in 0..good.len() {
            let err = Archive::from_bytes(good[..len].to_vec())
                .err()
                .unwrap_or_else(|| panic!("truncation to {len} bytes must fail"));
            // Any typed variant is acceptable; a panic is not.
            let _ = err.to_string();
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error_for_paged_opens() {
        // The same sweep through a paged store, so cuts that land
        // mid-page surface as typed errors from the streaming open too.
        let good = sample_archive();
        for len in 0..good.len() {
            let path = temp_archive("trunc", &good[..len]);
            let err = Archive::open_paged(&path, 64, 1024)
                .err()
                .unwrap_or_else(|| panic!("paged truncation to {len} bytes must fail"));
            let _ = err.to_string();
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn every_bit_flip_fails_parse_lookup_or_checksum() {
        let good = sample_archive();
        let original_tags: Vec<[u8; 8]> = Archive::from_bytes(good.clone())
            .expect("valid")
            .tags()
            .collect();
        for byte in 0..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            match Archive::from_bytes(bad) {
                Err(e) => {
                    let _ = e.to_string();
                }
                Ok(archive) => {
                    // The only flip the container itself cannot reject is
                    // a TOC *tag* byte: the payload and its checksum are
                    // untouched, the section is merely renamed — and the
                    // rename surfaces as MissingSection the moment a
                    // reader asks for the original tag. Payload flips are
                    // always caught by the per-section checksum.
                    let tags: Vec<[u8; 8]> = archive.tags().collect();
                    assert_ne!(
                        tags, original_tags,
                        "bit flip at byte {byte} went unnoticed"
                    );
                    let renamed = original_tags
                        .iter()
                        .find(|t| !tags.contains(t))
                        .expect("some original tag disappeared");
                    assert!(matches!(
                        archive.section(*renamed),
                        Err(SnapshotError::MissingSection { .. })
                    ));
                }
            }
        }
    }

    #[test]
    fn corrupt_lengths_do_not_balloon_or_panic() {
        // A section whose internal length prefix promises more data than
        // exists must produce Malformed, not an allocation explosion.
        let archive = Archive::from_bytes(huge_archive()).expect("container is valid");
        let sec = archive.section(*b"HUGE\0\0\0\0").expect("huge");
        let bytes = sec.bytes().expect("payload");
        let mut dec = Dec::new_at(&bytes, "HUGE", sec.base());
        assert!(matches!(
            dec.u32_vec(),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut dec = Dec::new(&[1, 2, 3], "TAIL");
        let _ = dec.u8().expect("one byte");
        assert!(matches!(dec.finish(), Err(SnapshotError::Malformed { .. })));
    }

    #[test]
    #[should_panic(expected = "duplicate snapshot section")]
    fn writer_rejects_duplicate_tags() {
        let mut w = ArchiveWriter::new(2);
        w.section(*b"DUP\0\0\0\0\0", |_| {});
        w.section(*b"DUP\0\0\0\0\0", |_| {});
    }

    #[test]
    #[should_panic(expected = "sections missing")]
    fn writer_rejects_an_unfinished_archive() {
        let mut w = ArchiveWriter::new(2);
        w.section(*b"ONE\0\0\0\0\0", |_| {});
        let _ = w.finish();
    }
}
