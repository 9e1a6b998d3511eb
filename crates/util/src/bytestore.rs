//! Byte-view backends for `.psa` snapshot archives: serve the flat
//! little-endian payloads *in place* instead of parsing them into heap
//! `Vec`s.
//!
//! A [`ByteStore`] is the owner of an archive's bytes with two backends:
//!
//! * **Heap** — the whole archive in one `Arc<[u8]>`; views borrow it and
//!   reads are plain subslices.
//! * **Paged** — a `std::fs::File` behind a fixed-page LRU cache with a
//!   configurable byte budget, lock-striped by page number so concurrent
//!   readers rarely share a lock; reads assemble from cached pages,
//!   faulting misses in with positioned reads. The resident set is the
//!   cache, not the archive, so one box can hold worlds larger than RAM.
//!
//! On top sits the typed view: a [`U32View`] describes a length-`n` run
//! of little-endian `u32`s at an absolute archive offset. It is the only
//! in-memory form of an index's flat tables — a fresh build is encoded
//! into a heap store and decoded like any archive.
//! Words are decoded from bytes on the fly — no `mmap`, no transmute, no
//! `unsafe` (the workspace forbids it).
//!
//! Construction-time bounds are validated by the snapshot decoders, so
//! post-load view reads are logically infallible; an I/O failure after a
//! successful open (e.g. the snapshot file truncated underneath a paged
//! store) is unrecoverable corruption and panics with a clear message
//! rather than serving wrong data.

use crate::snapshot::SnapshotError;
use std::fs::File;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Smallest accepted page size for a paged store. Tiny pages are legal
/// (tests run 512-byte pages) but sub-64 requests are clamped here so a
/// misconfigured budget cannot degenerate into per-word syscalls.
pub const MIN_PAGE_BYTES: usize = 64;

/// Elements decoded per refill by the buffered view iterators: large
/// enough to amortize the page-cache locks, small enough that cloning an
/// in-flight iterator stays cheap.
const ITER_CHUNK: usize = 256;

/// A point-in-time snapshot of a paged store's cache counters. All zero
/// for heap stores (they have no cache to hit or miss).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Page lookups satisfied from the cache.
    pub hits: u64,
    /// Page lookups that faulted the page in from the file.
    pub misses: u64,
    /// Pages dropped to stay within the byte budget.
    pub evictions: u64,
}

/// Lock stripes of a paged store's cache. Page `n` lives in shard
/// `n % CACHE_SHARDS`, so concurrent readers only queue on each other
/// when they touch pages of the same stripe. A power of two (as is the
/// unstriped count, 1), so the stripe of a page is a mask.
const CACHE_SHARDS: usize = 16;
const _: () = assert!(CACHE_SHARDS.is_power_of_two());

/// One cached page: its bytes plus the LRU tick of its last touch.
#[derive(Debug)]
struct Page {
    data: Box<[u8]>,
    tick: u64,
}

/// One lock stripe of the page cache: its pages, its own LRU clock and
/// its own counters, all behind the shard's mutex. Eviction is per
/// shard — the coldest page *of this shard* goes — which is what lets a
/// reader touch one stripe without seeing the others.
#[derive(Debug, Default)]
struct CacheShard {
    pages: std::collections::HashMap<u64, Page>,
    tick: u64,
    counters: CacheCounters,
}

#[derive(Debug)]
struct PagedFile {
    file: File,
    /// Seek-then-read moves the file's one shared cursor, so off Unix a
    /// page fault holds this for the length of its read.
    #[cfg(not(unix))]
    cursor: Mutex<()>,
    len: u64,
    page_bytes: usize,
    /// Page cap of each shard: `⌊max pages / shards⌋`, so the whole
    /// cache never holds more than the budget.
    shard_pages: usize,
    shards: Box<[Mutex<CacheShard>]>,
}

/// Locks one shard. A poisoned lock means another reader panicked
/// mid-copy; the shard's map is never left half-written (inserts are the
/// last step), so recovering the guard is safe.
fn lock(shard: &Mutex<CacheShard>) -> MutexGuard<'_, CacheShard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

impl PagedFile {
    fn new(file: File, len: u64, page_bytes: usize, max_pages: usize) -> PagedFile {
        // Striping a tiny budget would leave each shard a page or two
        // and turn LRU into near-random eviction; keep those whole.
        let shards = if max_pages < 4 * CACHE_SHARDS {
            1
        } else {
            CACHE_SHARDS
        };
        PagedFile {
            file,
            #[cfg(not(unix))]
            cursor: Mutex::new(()),
            len,
            page_bytes,
            shard_pages: max_pages / shards,
            shards: (0..shards).map(|_| Mutex::default()).collect(),
        }
    }

    /// Positioned read without a shared cursor: `pread` on Unix,
    /// seek-then-read under `cursor` elsewhere.
    fn read_exact_at(&self, offset: u64, out: &mut [u8]) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(out, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            // Every read seeks first, so a cursor left anywhere by a
            // panicked reader is harmless.
            let _cursor = self.cursor.lock().unwrap_or_else(PoisonError::into_inner);
            (&self.file).seek(SeekFrom::Start(offset))?;
            (&self.file).read_exact(out)
        }
    }

    /// Copies `out.len()` bytes starting at absolute `offset`, faulting
    /// pages in as needed. Caller has already bounds-checked the range.
    /// Each page is served under its own shard's lock, taken and dropped
    /// per page.
    fn read_into(&self, offset: u64, out: &mut [u8]) -> std::io::Result<()> {
        if out.is_empty() {
            return Ok(());
        }
        let page_bytes = self.page_bytes as u64;
        let first = offset / page_bytes;
        let last = (offset + out.len() as u64 - 1) / page_bytes;
        for page_no in first..=last {
            let page_start = page_no * page_bytes;
            let copy_from = offset.max(page_start);
            let copy_to = (offset + out.len() as u64).min(page_start + page_bytes);
            let in_page = (copy_from - page_start) as usize..(copy_to - page_start) as usize;
            let in_out = (copy_from - offset) as usize..(copy_to - offset) as usize;
            let mut shard = lock(&self.shards[page_no as usize & (self.shards.len() - 1)]);
            shard.tick += 1;
            let tick = shard.tick;
            if let Some(page) = shard.pages.get_mut(&page_no) {
                page.tick = tick;
                out[in_out].copy_from_slice(&page.data[in_page]);
                shard.counters.hits += 1;
                continue;
            }
            shard.counters.misses += 1;
            let want = (self.len - page_start).min(page_bytes) as usize;
            let mut data = vec![0u8; want];
            self.read_exact_at(page_start, &mut data)?;
            out[in_out].copy_from_slice(&data[in_page]);
            if shard.pages.len() >= self.shard_pages {
                // O(shard pages) coldest-tick scan: a shard holds a
                // sixteenth of a budget that is small by design (that is
                // the point of paging), so a linear sweep beats an
                // intrusive list without `unsafe`.
                if let Some(&coldest) = shard
                    .pages
                    .iter()
                    .min_by_key(|(_, p)| p.tick)
                    .map(|(no, _)| no)
                {
                    shard.pages.remove(&coldest);
                    shard.counters.evictions += 1;
                }
            }
            shard.pages.insert(
                page_no,
                Page {
                    data: data.into_boxed_slice(),
                    tick,
                },
            );
        }
        Ok(())
    }

    fn resident_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| {
                lock(shard)
                    .pages
                    .values()
                    .map(|p| p.data.len() as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    fn cache_counters(&self) -> CacheCounters {
        let mut sum = CacheCounters::default();
        for shard in self.shards.iter() {
            let c = lock(shard).counters;
            sum.hits += c.hits;
            sum.misses += c.misses;
            sum.evictions += c.evictions;
        }
        sum
    }
}

#[derive(Debug)]
enum StoreInner {
    // The Vec is never cloned or converted: stores are shared as
    // `Arc<ByteStore>`, so wrapping the buffer again (e.g. `Arc<[u8]>`)
    // would only buy a second full-archive copy at open time.
    Heap(Vec<u8>),
    Paged(PagedFile),
}

/// The owner of one archive's bytes — heap-resident or paged from disk.
/// Shared as `Arc<ByteStore>`; every view holds a clone of the `Arc`.
#[derive(Debug)]
pub struct ByteStore {
    inner: StoreInner,
}

impl ByteStore {
    /// A heap store over `bytes`: every read is a subslice. The buffer
    /// is taken as-is — opening an archive costs one file read, not a
    /// read plus a copy.
    pub fn heap(bytes: Vec<u8>) -> ByteStore {
        ByteStore {
            inner: StoreInner::Heap(bytes),
        }
    }

    /// Opens `path` as a paged store: `page_bytes` per page (clamped to
    /// [`MIN_PAGE_BYTES`]), at most `budget_bytes` of cached pages
    /// (clamped to two pages, the minimum that lets a read straddle a
    /// boundary without thrashing its own working set). Budgets of 64
    /// pages and up are split over 16 lock stripes of `⌊pages / 16⌋`
    /// pages each; smaller ones stay one LRU.
    pub fn open_paged(
        path: impl AsRef<std::path::Path>,
        page_bytes: usize,
        budget_bytes: u64,
    ) -> Result<ByteStore, SnapshotError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let page_bytes = page_bytes.max(MIN_PAGE_BYTES);
        let max_pages = usize::try_from(budget_bytes / page_bytes as u64)
            .unwrap_or(usize::MAX)
            .max(2);
        Ok(ByteStore {
            inner: StoreInner::Paged(PagedFile::new(file, len, page_bytes, max_pages)),
        })
    }

    /// Total byte length of the backing archive.
    pub fn len(&self) -> u64 {
        match &self.inner {
            StoreInner::Heap(bytes) => bytes.len() as u64,
            StoreInner::Paged(paged) => paged.len,
        }
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Backend label: `"heap"` or `"paged"`.
    pub fn kind(&self) -> &'static str {
        match &self.inner {
            StoreInner::Heap(_) => "heap",
            StoreInner::Paged(_) => "paged",
        }
    }

    /// The whole archive as a borrowed slice — heap stores only.
    pub fn as_heap(&self) -> Option<&[u8]> {
        match &self.inner {
            StoreInner::Heap(bytes) => Some(bytes),
            StoreInner::Paged(_) => None,
        }
    }

    /// Bytes currently resident: the archive itself for heap stores, the
    /// cached pages for paged stores.
    pub fn resident_bytes(&self) -> u64 {
        match &self.inner {
            StoreInner::Heap(bytes) => bytes.len() as u64,
            StoreInner::Paged(paged) => paged.resident_bytes(),
        }
    }

    /// Page-cache counters (all zero for heap stores).
    pub fn cache_counters(&self) -> CacheCounters {
        match &self.inner {
            StoreInner::Heap(_) => CacheCounters::default(),
            StoreInner::Paged(paged) => paged.cache_counters(),
        }
    }

    /// The page size in bytes (`None` for heap stores).
    pub fn page_bytes(&self) -> Option<usize> {
        match &self.inner {
            StoreInner::Heap(_) => None,
            StoreInner::Paged(paged) => Some(paged.page_bytes),
        }
    }

    fn check_range(&self, range: &Range<u64>, context: &str) -> Result<(), SnapshotError> {
        if range.start > range.end || range.end > self.len() {
            return Err(SnapshotError::Truncated {
                context: context.to_string(),
                offset: range.end.max(range.start),
            });
        }
        Ok(())
    }

    /// Copies `out.len()` bytes at absolute `offset` into `out`, with a
    /// typed error on out-of-bounds or I/O failure.
    pub fn try_read(
        &self,
        offset: u64,
        out: &mut [u8],
        context: &str,
    ) -> Result<(), SnapshotError> {
        self.check_range(&(offset..offset + out.len() as u64), context)?;
        match &self.inner {
            StoreInner::Heap(bytes) => {
                let start = offset as usize;
                out.copy_from_slice(&bytes[start..start + out.len()]);
                Ok(())
            }
            StoreInner::Paged(paged) => paged.read_into(offset, out).map_err(SnapshotError::Io),
        }
    }

    /// [`ByteStore::try_read`] for post-validation reads: bounds were
    /// proven at decode time, so failure here means the backing file
    /// changed underneath us — panic rather than serve wrong bytes.
    pub fn read(&self, offset: u64, out: &mut [u8]) {
        self.try_read(offset, out, "byte store read")
            .expect("snapshot byte store read failed after validation (file changed on disk?)");
    }

    /// Materializes `range` as an owned buffer.
    pub fn read_range(&self, range: Range<u64>, context: &str) -> Result<Vec<u8>, SnapshotError> {
        self.check_range(&range, context)?;
        let mut out = vec![0u8; (range.end - range.start) as usize];
        self.try_read(range.start, &mut out, context)?;
        Ok(out)
    }

    /// Streams `range` through `f` in bounded chunks without ever
    /// materializing the whole range: heap stores hand over one borrowed
    /// slice; paged stores walk page-aligned chunks through a scratch
    /// buffer (so each chunk touches exactly one page). `f` runs with no
    /// store lock held.
    pub fn try_for_chunks<E>(
        &self,
        range: Range<u64>,
        mut f: impl FnMut(&[u8]) -> Result<(), E>,
    ) -> Result<(), E>
    where
        E: From<SnapshotError>,
    {
        self.check_range(&range, "chunked read").map_err(E::from)?;
        match &self.inner {
            StoreInner::Heap(bytes) => f(&bytes[range.start as usize..range.end as usize]),
            StoreInner::Paged(paged) => {
                let page_bytes = paged.page_bytes as u64;
                let mut at = range.start;
                let mut buf = Vec::new();
                while at < range.end {
                    let chunk_end = ((at / page_bytes + 1) * page_bytes).min(range.end);
                    buf.resize((chunk_end - at) as usize, 0);
                    self.try_read(at, &mut buf, "chunked read")
                        .map_err(E::from)?;
                    f(&buf)?;
                    at = chunk_end;
                }
                Ok(())
            }
        }
    }
}

/// `n` little-endian `u32`s at absolute byte offset `start` of a store.
#[derive(Debug, Clone)]
pub struct U32View {
    store: Arc<ByteStore>,
    start: u64,
    len: usize,
}

impl U32View {
    /// A view over `len` words at absolute byte `start`. The byte
    /// range must already be validated against the store.
    pub fn new(store: Arc<ByteStore>, start: u64, len: usize) -> U32View {
        debug_assert!(start + (len as u64) * 4 <= store.len());
        U32View { store, start, len }
    }

    /// Number of words in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view has no words.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<ByteStore> {
        &self.store
    }

    /// Decodes word `i` (panics out of bounds, like slice indexing).
    pub fn get(&self, i: usize) -> u32 {
        assert!(
            i < self.len,
            "view index {i} out of bounds (len {})",
            self.len
        );
        let mut raw = [0u8; 4];
        self.store.read(self.start + (i as u64) * 4, &mut raw);
        u32::from_le_bytes(raw)
    }

    /// Streams the words of `range` through `f` in storage order
    /// without materializing the range. Words that straddle a
    /// page boundary are reassembled through a carry buffer, so
    /// any page size ≥ [`MIN_PAGE_BYTES`] yields identical words.
    pub fn try_for_each_in<E: From<SnapshotError>>(
        &self,
        range: Range<usize>,
        mut f: impl FnMut(u32) -> Result<(), E>,
    ) -> Result<(), E> {
        assert!(range.start <= range.end && range.end <= self.len);
        let byte_start = self.start + (range.start as u64) * 4;
        let byte_end = self.start + (range.end as u64) * 4;
        let mut carry = [0u8; 4];
        let mut carry_len: usize = 0;
        self.store
            .try_for_chunks(byte_start..byte_end, |mut chunk| {
                if carry_len > 0 {
                    let need = 4 - carry_len;
                    let take = need.min(chunk.len());
                    carry[carry_len..carry_len + take].copy_from_slice(&chunk[..take]);
                    carry_len += take;
                    chunk = &chunk[take..];
                    if carry_len == 4 {
                        f(u32::from_le_bytes(carry))?;
                        carry_len = 0;
                    }
                }
                let mut words = chunk.chunks_exact(4);
                for word in &mut words {
                    f(u32::from_le_bytes(word.try_into().expect("exact word")))?;
                }
                let rest = words.remainder();
                carry[..rest.len()].copy_from_slice(rest);
                carry_len = rest.len();
                Ok(())
            })
    }

    /// Decodes words `range` into `out` (cleared first) with one
    /// bulk byte read.
    pub fn read_range_into(&self, range: Range<usize>, out: &mut Vec<u32>) {
        assert!(range.start <= range.end && range.end <= self.len);
        out.clear();
        out.reserve(range.len());
        let byte_start = self.start + (range.start as u64) * 4;
        let mut raw = vec![0u8; range.len() * 4];
        self.store.read(byte_start, &mut raw);
        out.extend(
            raw.chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("exact word"))),
        );
    }

    /// Materializes the whole view as an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.read_range_into(0..self.len, &mut out);
        out
    }

    /// Streams every word through `f`, stopping at the first
    /// error.
    pub fn try_for_each<E: From<SnapshotError>>(
        &self,
        f: impl FnMut(u32) -> Result<(), E>,
    ) -> Result<(), E> {
        self.try_for_each_in(0..self.len, f)
    }

    /// Visits words `range` in order (infallible variant: the
    /// range was validated at decode time).
    pub fn for_each_in(&self, range: Range<usize>, mut f: impl FnMut(u32)) {
        self.try_for_each_in::<SnapshotError>(range, |w| {
            f(w);
            Ok(())
        })
        .expect("snapshot byte store read failed after validation (file changed on disk?)");
    }

    /// A buffered iterator over every word: it decodes `ITER_CHUNK`-word
    /// runs at a time, so iteration costs one bulk read per chunk, not one
    /// page lookup per word.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u32> + Clone + '_ {
        U32Iter {
            view: self,
            pos: 0,
            end: self.len,
            buf: Vec::new(),
            buf_start: 0,
        }
    }
}

#[derive(Clone)]
struct U32Iter<'a> {
    view: &'a U32View,
    pos: usize,
    end: usize,
    buf: Vec<u32>,
    buf_start: usize,
}

impl Iterator for U32Iter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.pos >= self.end {
            return None;
        }
        if self.pos < self.buf_start || self.pos >= self.buf_start + self.buf.len() {
            let chunk_end = (self.pos + ITER_CHUNK).min(self.end);
            self.view
                .read_range_into(self.pos..chunk_end, &mut self.buf);
            self.buf_start = self.pos;
        }
        let word = self.buf[self.pos - self.buf_start];
        self.pos += 1;
        Some(word)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.pos;
        (n, Some(n))
    }
}

impl ExactSizeIterator for U32Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::checksum;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("perils-bytestore-{name}-{}", std::process::id()));
        p
    }

    fn pattern_bytes(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + i / 251) as u8).collect()
    }

    #[test]
    fn heap_and_paged_reads_agree_across_page_sizes() {
        let bytes = pattern_bytes(10_000);
        let path = temp_path("agree");
        std::fs::write(&path, &bytes).expect("write temp");
        let heap = ByteStore::heap(bytes.clone());
        for &page in &[MIN_PAGE_BYTES, 512, 4096, 65536] {
            let paged = ByteStore::open_paged(&path, page, (page * 2) as u64).expect("open");
            assert_eq!(paged.kind(), "paged");
            assert_eq!(paged.len(), heap.len());
            // Straddling reads at awkward offsets, including page edges.
            for &(off, len) in &[
                (0u64, 1usize),
                (511, 2),
                (510, 7),
                (4093, 9),
                (0, 10_000),
                (9_999, 1),
                (9_000, 1_000),
            ] {
                let mut a = vec![0u8; len];
                let mut b = vec![0u8; len];
                heap.try_read(off, &mut a, "t").expect("heap read");
                paged.try_read(off, &mut b, "t").expect("paged read");
                assert_eq!(a, b, "page={page} off={off} len={len}");
            }
            let counters = paged.cache_counters();
            assert!(counters.misses > 0, "misses must be counted");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn paged_store_respects_budget_and_counts_evictions() {
        let bytes = pattern_bytes(8_192);
        let path = temp_path("budget");
        std::fs::write(&path, &bytes).expect("write temp");
        // Two 512-byte pages of budget over a 16-page file.
        let paged = ByteStore::open_paged(&path, 512, 1024).expect("open");
        for round in 0..3 {
            for page in 0..16u64 {
                let mut b = [0u8; 4];
                paged.try_read(page * 512, &mut b, "t").expect("read");
                let _ = round;
            }
        }
        assert!(paged.resident_bytes() <= 2 * 512 + 512, "budget respected");
        let c = paged.cache_counters();
        assert!(c.evictions > 0, "evictions counted: {c:?}");
        assert!(c.misses >= 16, "every page missed at least once");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_paged_reads_match_heap_and_stay_in_budget() {
        const THREADS: usize = 4;
        const READS: usize = 2_000;
        let page = 512usize;
        // 257 pages with a ragged tail: larger than every budget below.
        let bytes = pattern_bytes(256 * page + 100);
        let path = temp_path("concurrent");
        std::fs::write(&path, &bytes).expect("write temp");
        let heap = ByteStore::heap(bytes);
        // Both sides of the striping threshold (64 pages), each budget
        // paired with the shard count it must get.
        for (budget_pages, shards) in [(2, 1), (63, 1), (64, CACHE_SHARDS), (100, CACHE_SHARDS)] {
            let budget = (budget_pages * page) as u64;
            let paged = ByteStore::open_paged(&path, page, budget).expect("open");
            let StoreInner::Paged(file) = &paged.inner else {
                unreachable!("open_paged builds a paged store")
            };
            assert_eq!(file.shards.len(), shards, "budget {budget_pages} pages");
            let start = std::sync::Barrier::new(THREADS);
            let touches: u64 = std::thread::scope(|scope| {
                let readers: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let (paged, heap, start) = (&paged, &heap, &start);
                        scope.spawn(move || {
                            let mut rng = crate::Rng::new(0x5EED + t as u64);
                            let mut touched = 0u64;
                            start.wait();
                            for _ in 0..READS {
                                let len = 1 + rng.below_usize(3 * page);
                                let off = rng.below(heap.len() - len as u64 + 1);
                                let mut want = vec![0u8; len];
                                let mut got = vec![0u8; len];
                                heap.try_read(off, &mut want, "t").expect("heap read");
                                paged.try_read(off, &mut got, "t").expect("paged read");
                                assert_eq!(want, got, "off={off} len={len}");
                                touched +=
                                    (off + len as u64 - 1) / page as u64 - off / page as u64 + 1;
                            }
                            touched
                        })
                    })
                    .collect();
                readers
                    .into_iter()
                    .map(|r| r.join().expect("reader thread"))
                    .sum()
            });
            // The plateau is `shards × ⌊budget pages / shards⌋` pages.
            let plateau = (shards * (budget_pages / shards) * page) as u64;
            assert!(plateau <= budget);
            assert!(
                paged.resident_bytes() <= plateau,
                "budget {budget_pages} pages: {} resident bytes",
                paged.resident_bytes()
            );
            let c = paged.cache_counters();
            assert_eq!(c.hits + c.misses, touches, "every page touch counted once");
            assert!(c.evictions > 0, "the working set exceeds the budget");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn paged_reads_past_end_are_typed_errors() {
        let path = temp_path("oob");
        std::fs::write(&path, pattern_bytes(100)).expect("write temp");
        let paged = ByteStore::open_paged(&path, 512, 1024).expect("open");
        let mut buf = [0u8; 8];
        assert!(matches!(
            paged.try_read(96, &mut buf, "tail"),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            paged.read_range(90..110, "tail"),
            Err(SnapshotError::Truncated { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn u32_views_decode_identically_to_owned() {
        let words: Vec<u32> = (0..5_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let mut bytes = vec![0xAAu8; 13]; // non-aligned leading garbage
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let path = temp_path("u32view");
        std::fs::write(&path, &bytes).expect("write temp");
        for store in [
            Arc::new(ByteStore::heap(bytes.clone())),
            Arc::new(ByteStore::open_paged(&path, 512, 1024).expect("open")),
        ] {
            let view = U32View::new(store, 13, words.len());
            assert_eq!(view.len(), words.len());
            assert_eq!(view.to_vec(), words);
            assert!(view.iter().eq(words.iter().copied()), "buffered iteration");
            assert_eq!(view.get(0), words[0]);
            assert_eq!(view.get(4_999), words[4_999]);
            let mut streamed = Vec::new();
            view.try_for_each::<SnapshotError>(|w| {
                streamed.push(w);
                Ok(())
            })
            .expect("stream");
            assert_eq!(streamed, words);
            let mut visited = Vec::new();
            view.for_each_in(1_000..1_300, |w| visited.push(w));
            assert_eq!(visited, &words[1_000..1_300]);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Words at an odd offset over the smallest pages: every page
    /// boundary splits a word, which the carry buffer reassembles.
    #[test]
    fn u32_views_straddle_pages_correctly() {
        let words: Vec<u32> = (0..1_000u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let mut bytes = vec![0x55u8; 3];
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let path = temp_path("u32straddle");
        std::fs::write(&path, &bytes).expect("write temp");
        let store = Arc::new(ByteStore::open_paged(&path, MIN_PAGE_BYTES, 128).expect("open"));
        let view = U32View::new(store, 3, words.len());
        assert!(view.iter().eq(words.iter().copied()));
        let mut streamed = Vec::new();
        view.try_for_each::<SnapshotError>(|w| {
            streamed.push(w);
            Ok(())
        })
        .expect("stream");
        assert_eq!(streamed, words);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_fold_matches_one_shot_checksum_at_any_split() {
        let bytes = pattern_bytes(1_037);
        let expect = checksum(&bytes);
        for split in [0, 1, 7, 8, 9, 512, 1_000, 1_036, 1_037] {
            let mut fold = crate::snapshot::ChecksumFold::new();
            fold.update(&bytes[..split]);
            fold.update(&bytes[split..]);
            assert_eq!(fold.finish(), expect, "split at {split}");
        }
        // Many tiny chunks (every page size down to 1 byte).
        for chunk in [1usize, 3, 5, 8, 64, 513] {
            let mut fold = crate::snapshot::ChecksumFold::new();
            for c in bytes.chunks(chunk) {
                fold.update(c);
            }
            assert_eq!(fold.finish(), expect, "chunk size {chunk}");
        }
    }
}
