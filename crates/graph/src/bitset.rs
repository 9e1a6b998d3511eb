//! A fixed-capacity bitset over `u64` blocks, plus an interner for
//! memoized set storage.
//!
//! Reachability and closure computations over survey-scale graphs need cheap
//! set union and membership; [`BitSet`] is the usual packed representation.
//! [`BitSetInterner`] stores many related sets compactly — each distinct
//! set once, sparse (sorted ids) when small and packed (bit blocks) when
//! dense — which is what lets the dependency index memoize one reachable
//! set per strongly connected component without quadratic memory. The
//! interner only builds; what it built is read back as a [`SetTable`]
//! over an archive's byte store.

use std::collections::HashMap;

use perils_util::bytestore::{U32View, U64View};
use perils_util::snapshot::{self, SnapshotError, StoreDec};

/// A fixed-capacity set of `usize` values in `[0, capacity)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    blocks: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set with room for `capacity` elements.
    pub fn new(capacity: usize) -> BitSet {
        BitSet {
            blocks: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `value`; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `value >= capacity`.
    pub fn insert(&mut self, value: usize) -> bool {
        assert!(
            value < self.capacity,
            "bit {value} out of capacity {}",
            self.capacity
        );
        let (block, bit) = (value / 64, value % 64);
        let mask = 1u64 << bit;
        let fresh = self.blocks[block] & mask == 0;
        self.blocks[block] |= mask;
        fresh
    }

    /// Removes `value`; returns whether it was present.
    pub fn remove(&mut self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        let (block, bit) = (value / 64, value % 64);
        let mask = 1u64 << bit;
        let present = self.blocks[block] & mask != 0;
        self.blocks[block] &= !mask;
        present
    }

    /// Membership test (out-of-range values are absent).
    pub fn contains(&self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        self.blocks[value / 64] & (1u64 << (value % 64)) != 0
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.blocks.iter_mut().for_each(|b| *b = 0);
    }

    /// Iterates elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(i, &block)| {
            let mut bits = block;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(i * 64 + tz)
                }
            })
        })
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to the maximum element.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let values: Vec<usize> = iter.into_iter().collect();
        let capacity = values.iter().max().map_or(0, |&m| m + 1);
        let mut set = BitSet::new(capacity);
        for v in values {
            set.insert(v);
        }
        set
    }
}

/// Handle to a set stored in a [`BitSetInterner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SetId(u32);

impl SetId {
    /// The id as an index into the interner's arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` id, for flat serialization. Pair with
    /// [`SetId::from_raw`]; not meaningful outside the interner that
    /// issued it.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from its [`SetId::raw`] form. The caller owns
    /// validating it against the target interner's length — snapshot
    /// decoders do so before any set lookup.
    #[inline]
    pub fn from_raw(raw: u32) -> SetId {
        SetId(raw)
    }
}

/// One stored set: sparse sorted ids when small (a range of the shared
/// element arena — one allocation for all sparse sets, not one per set),
/// packed blocks when the set is dense enough that blocks are the smaller
/// representation. `Blocks` is a `Vec<u64>` while a [`BitSetInterner`]
/// builds and a store view once a [`SetTable`] has decoded it.
#[derive(Debug, Clone)]
enum CompactSet<Blocks> {
    Sparse { offset: u32, len: u32 },
    Dense { blocks: Blocks, len: u32 },
}

impl<Blocks> CompactSet<Blocks> {
    fn len(&self) -> usize {
        match self {
            CompactSet::Sparse { len, .. } | CompactSet::Dense { len, .. } => *len as usize,
        }
    }
}

/// Calls `f` for every set bit of dense block number `index`, ascending.
fn for_each_bit(index: u32, block: u64, f: &mut impl FnMut(u32)) {
    let mut bits = block;
    while bits != 0 {
        let tz = bits.trailing_zeros();
        bits &= bits - 1;
        f(index * 64 + tz);
    }
}

/// A deduplicating arena of sets over `[0, capacity)` — the build side.
///
/// `intern` stores each distinct set once and hands out a [`SetId`];
/// identical sets (e.g. the zone closures of sibling registry servers)
/// share storage. Sets are stored sparsely (4 bytes per element) below a
/// density of 1/32 and as bit blocks above it, so both a survey-scale
/// arena of ~46-element mean closures and the occasional hub component
/// reaching thousands of servers stay memory-bounded. Once built, the
/// arena is written out with [`BitSetInterner::encode_into`] and read back
/// as a [`SetTable`].
#[derive(Debug)]
pub struct BitSetInterner {
    capacity: usize,
    sets: Vec<CompactSet<Vec<u64>>>,
    /// Shared element storage of every sparse set.
    arena: Vec<u32>,
    /// FNV-1a hash of the sorted ids → first set with that hash (further
    /// same-hash sets go to `overflow`; collisions of *distinct* sets are
    /// vanishingly rare, so the common case costs one map probe and no
    /// per-bucket allocation).
    by_hash: HashMap<u64, SetId>,
    /// Rare same-hash-different-content candidates, scanned linearly.
    overflow: Vec<(u64, SetId)>,
    /// Total elements across interned sets, counting each set once
    /// (dedup-aware size accounting for diagnostics).
    stored_elements: usize,
}

impl BitSetInterner {
    /// Creates an empty interner for sets over `[0, capacity)`.
    pub fn new(capacity: usize) -> BitSetInterner {
        BitSetInterner {
            capacity,
            sets: Vec::new(),
            arena: Vec::new(),
            by_hash: HashMap::new(),
            overflow: Vec::new(),
            stored_elements: 0,
        }
    }

    /// The element capacity sets are bounded by.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of distinct sets stored.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True when no set has been interned.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Total elements across distinct sets (each set counted once).
    pub fn stored_elements(&self) -> usize {
        self.stored_elements
    }

    /// Interns `ids`, which **must** be sorted ascending and
    /// duplicate-free with every element `< capacity` — dedup comparisons,
    /// slice borrowing and membership queries all assume it. Debug builds
    /// verify the ordering; release builds trust the caller (this sits on
    /// the index build's hot path). Returns the id of the stored set — the
    /// same id for an identical set interned earlier.
    ///
    /// # Panics
    ///
    /// Panics when the last id exceeds the capacity (and, in debug builds,
    /// when `ids` is unsorted or has duplicates).
    pub fn intern(&mut self, ids: &[u32]) -> SetId {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "interned ids must be sorted and unique"
        );
        if let Some(&last) = ids.last() {
            assert!(
                (last as usize) < self.capacity,
                "id {last} out of capacity {}",
                self.capacity
            );
        }
        let hash = fnv1a(ids);
        match self.by_hash.entry(hash) {
            std::collections::hash_map::Entry::Occupied(first) => {
                let first = *first.get();
                if self.eq_ids(first, ids) {
                    return first;
                }
                for &(h, id) in &self.overflow {
                    if h == hash && self.eq_ids(id, ids) {
                        return id;
                    }
                }
                let id =
                    SetId(u32::try_from(self.sets.len()).expect("interner set count fits u32"));
                let packed = self.pack(ids);
                self.sets.push(packed);
                self.stored_elements += ids.len();
                self.overflow.push((hash, id));
                id
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                let id =
                    SetId(u32::try_from(self.sets.len()).expect("interner set count fits u32"));
                slot.insert(id);
                let packed = self.pack(ids);
                self.sets.push(packed);
                self.stored_elements += ids.len();
                id
            }
        }
    }

    /// Borrows the sorted element slice of set `id` when it is stored
    /// sparsely (`None` for block-packed dense sets) — the merge fast
    /// path of the memoization pass.
    pub fn as_sorted_slice(&self, id: SetId) -> Option<&[u32]> {
        match self.sets[id.index()] {
            CompactSet::Sparse { offset, len } => {
                Some(&self.arena[offset as usize..(offset + len) as usize])
            }
            CompactSet::Dense { .. } => None,
        }
    }

    /// Number of elements in set `id`.
    pub fn set_len(&self, id: SetId) -> usize {
        self.sets[id.index()].len()
    }

    /// Calls `f` for every element of set `id`, ascending.
    pub fn for_each(&self, id: SetId, mut f: impl FnMut(u32)) {
        match &self.sets[id.index()] {
            CompactSet::Sparse { offset, len } => self.arena
                [*offset as usize..(offset + len) as usize]
                .iter()
                .for_each(|&v| f(v)),
            CompactSet::Dense { blocks, .. } => {
                for (i, &block) in blocks.iter().enumerate() {
                    for_each_bit(i as u32, block, &mut f);
                }
            }
        }
    }

    /// Unions set `id` into the `seen` scratch set, appending every element
    /// not already present to `out`. The caller owns clearing `seen`
    /// (sparsely, via `out`) between uses.
    ///
    /// # Panics
    ///
    /// Panics when `seen` was not sized to this interner's capacity.
    pub fn union_into(&self, id: SetId, seen: &mut BitSet, out: &mut Vec<u32>) {
        assert_eq!(seen.capacity(), self.capacity, "scratch capacity mismatch");
        self.for_each(id, |v| {
            if seen.insert(v as usize) {
                out.push(v);
            }
        });
    }

    fn pack(&mut self, ids: &[u32]) -> CompactSet<Vec<u64>> {
        // Dense wins once 4 bytes/element exceeds capacity/8 bytes of blocks.
        if ids.len() * 32 >= self.capacity && self.capacity >= 64 {
            let mut blocks = vec![0u64; self.capacity.div_ceil(64)];
            for &v in ids {
                blocks[v as usize / 64] |= 1u64 << (v % 64);
            }
            CompactSet::Dense {
                blocks,
                len: ids.len() as u32,
            }
        } else {
            let offset = u32::try_from(self.arena.len()).expect("interner arena fits u32");
            self.arena.extend_from_slice(ids);
            CompactSet::Sparse {
                offset,
                len: ids.len() as u32,
            }
        }
    }

    /// Appends this interner's exact internal layout — capacity, shared
    /// sparse arena, and every set's representation (sparse range or
    /// dense blocks) — as flat little-endian fields. Pair with
    /// [`SetTable::decode_from`]; the table answers every query with the
    /// same ids, elements and packing choices as this interner.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        snapshot::put_u64(out, self.capacity as u64);
        snapshot::put_u64(out, self.stored_elements as u64);
        snapshot::put_u32_slice(out, &self.arena);
        snapshot::put_u32(
            out,
            u32::try_from(self.sets.len()).expect("interner set count fits u32"),
        );
        for set in &self.sets {
            match set {
                CompactSet::Sparse { offset, len } => {
                    snapshot::put_u8(out, 0);
                    snapshot::put_u32(out, *offset);
                    snapshot::put_u32(out, *len);
                }
                CompactSet::Dense { blocks, len } => {
                    snapshot::put_u8(out, 1);
                    snapshot::put_u32(out, *len);
                    snapshot::put_u64_slice(out, blocks);
                }
            }
        }
    }

    fn eq_ids(&self, id: SetId, ids: &[u32]) -> bool {
        match &self.sets[id.index()] {
            CompactSet::Sparse { offset, len } => {
                self.arena[*offset as usize..(offset + len) as usize] == *ids
            }
            CompactSet::Dense { blocks, len } => {
                *len as usize == ids.len()
                    && ids
                        .iter()
                        .all(|&v| blocks[v as usize / 64] & (1u64 << (v % 64)) != 0)
            }
        }
    }
}

/// The read side of a [`BitSetInterner`]: the sets it built, decoded from
/// its [`BitSetInterner::encode_into`] bytes. Read-only — the sparse arena
/// and every dense block run stay views into the archive's byte store,
/// and nothing can be interned into a table.
#[derive(Debug, Clone)]
pub struct SetTable {
    capacity: usize,
    sets: Vec<CompactSet<U64View>>,
    arena: U32View,
}

impl SetTable {
    /// Reads a table from [`BitSetInterner::encode_into`] bytes.
    ///
    /// Every structural claim is validated before use —
    /// sparse ranges against the arena, element order/bounds against the
    /// capacity, dense block counts and popcounts, and the stored-element
    /// total — so a corrupt section yields a typed error, never a panic
    /// or a silently wrong set.
    pub fn decode_from(dec: &mut StoreDec) -> Result<SetTable, SnapshotError> {
        let capacity = usize::try_from(dec.u64()?)
            .map_err(|_| dec.malformed("interner capacity exceeds usize"))?;
        let stored_elements = usize::try_from(dec.u64()?)
            .map_err(|_| dec.malformed("interner stored_elements exceeds usize"))?;
        let arena = dec.u32_arr()?;
        let set_count = dec.u32()? as usize;
        let block_count = capacity.div_ceil(64);
        let mut sets = Vec::with_capacity(set_count.min(dec.remaining() as usize));
        let mut element_total = 0usize;
        for i in 0..set_count {
            let set = match dec.u8()? {
                0 => {
                    let offset = dec.u32()?;
                    let len = dec.u32()?;
                    let end = u64::from(offset) + u64::from(len);
                    if end > arena.len() as u64 {
                        return Err(dec.malformed(format!(
                            "sparse set {i} range {offset}+{len} exceeds arena of {}",
                            arena.len()
                        )));
                    }
                    // One streamed pass: sorted-unique and bounds,
                    // without materializing the range.
                    let mut prev: Option<u32> = None;
                    arena.try_for_each_in(offset as usize..end as usize, |v| {
                        if prev.is_some_and(|p| p >= v) {
                            return Err(
                                dec.malformed(format!("sparse set {i} is not sorted-unique"))
                            );
                        }
                        if v as usize >= capacity {
                            return Err(dec.malformed(format!(
                                "sparse set {i} has an element out of capacity {capacity}"
                            )));
                        }
                        prev = Some(v);
                        Ok(())
                    })?;
                    CompactSet::Sparse { offset, len }
                }
                1 => {
                    let len = dec.u32()?;
                    let blocks = dec.u64_arr()?;
                    if blocks.len() != block_count {
                        return Err(dec.malformed(format!(
                            "dense set {i} has {} blocks, capacity {capacity} needs {block_count}",
                            blocks.len()
                        )));
                    }
                    let tail_bits = capacity % 64;
                    let mut popcount: u64 = 0;
                    let mut index = 0usize;
                    blocks.try_for_each(|b| {
                        popcount += u64::from(b.count_ones());
                        index += 1;
                        if index == block_count
                            && tail_bits != 0
                            && b & !((1u64 << tail_bits) - 1) != 0
                        {
                            return Err(dec.malformed(format!(
                                "dense set {i} has bits beyond capacity {capacity}"
                            )));
                        }
                        Ok(())
                    })?;
                    if popcount != u64::from(len) {
                        return Err(dec.malformed(format!(
                            "dense set {i} declares {len} elements but blocks hold {popcount}"
                        )));
                    }
                    CompactSet::Dense { blocks, len }
                }
                other => {
                    return Err(
                        dec.malformed(format!("set {i} has unknown representation tag {other}"))
                    );
                }
            };
            element_total += set.len();
            sets.push(set);
        }
        if element_total != stored_elements {
            return Err(dec.malformed(format!(
                "stored_elements {stored_elements} disagrees with set contents {element_total}"
            )));
        }
        Ok(SetTable {
            capacity,
            sets,
            arena,
        })
    }

    /// The element capacity sets are bounded by.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of distinct sets stored.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True when the table holds no set.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Number of elements in set `id`.
    pub fn set_len(&self, id: SetId) -> usize {
        self.sets[id.index()].len()
    }

    /// Calls `f` for every element of set `id`, ascending.
    pub fn for_each(&self, id: SetId, mut f: impl FnMut(u32)) {
        match &self.sets[id.index()] {
            CompactSet::Sparse { offset, len } => self
                .arena
                .for_each_in(*offset as usize..(offset + len) as usize, f),
            CompactSet::Dense { blocks, .. } => {
                let mut i = 0u32;
                blocks.for_each_in(0..blocks.len(), |block| {
                    for_each_bit(i, block, &mut f);
                    i += 1;
                });
            }
        }
    }

    /// [`BitSetInterner::union_into`] over the table's sets.
    ///
    /// # Panics
    ///
    /// Panics when `seen` was not sized to this table's capacity.
    pub fn union_into(&self, id: SetId, seen: &mut BitSet, out: &mut Vec<u32>) {
        assert_eq!(seen.capacity(), self.capacity, "scratch capacity mismatch");
        self.for_each(id, |v| {
            if seen.insert(v as usize) {
                out.push(v);
            }
        });
    }
}

/// FNV-1a folded one `u32` element at a time (not per byte): the hash is
/// purely internal to the dedup map, so trading byte-granularity for a
/// 4× shorter multiply chain is free.
fn fnv1a(ids: &[u32]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &v in ids {
        h = (h ^ u64::from(v)).wrapping_mul(0x100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "double insert reports false");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(!s.contains(10_000), "out of range is absent");
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn iteration_order_and_clear() {
        let mut s = BitSet::new(200);
        for v in [199, 3, 77, 64, 63] {
            s.insert(v);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 63, 64, 77, 199]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn interner_dedupes_identical_sets() {
        let mut pool = BitSetInterner::new(1000);
        let a = pool.intern(&[1, 5, 900]);
        let b = pool.intern(&[1, 5, 900]);
        let c = pool.intern(&[1, 5]);
        assert_eq!(a, b, "identical sets share one id");
        assert_ne!(a, c);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.stored_elements(), 5);
        assert_eq!(pool.set_len(a), 3);
        let mut got = Vec::new();
        pool.for_each(a, |v| got.push(v));
        assert_eq!(got, vec![1, 5, 900]);
    }

    #[test]
    fn interner_dense_representation_roundtrips() {
        let mut pool = BitSetInterner::new(256);
        // 0..128 is dense enough (128 * 32 >= 256) to be packed as blocks.
        let big: Vec<u32> = (0..128).collect();
        let id = pool.intern(&big);
        assert_eq!(pool.set_len(id), 128);
        let mut got = Vec::new();
        pool.for_each(id, |v| got.push(v));
        assert_eq!(got, big);
        // Dense and sparse storage dedupe against each other consistently.
        assert_eq!(pool.intern(&big), id);
        let small = pool.intern(&[3, 4]);
        assert_ne!(small, id);
    }

    #[test]
    fn interner_union_into_appends_fresh_elements() {
        let mut pool = BitSetInterner::new(100);
        let a = pool.intern(&[2, 7, 40]);
        let b = pool.intern(&[7, 41]);
        let mut seen = BitSet::new(100);
        let mut out = Vec::new();
        pool.union_into(a, &mut seen, &mut out);
        pool.union_into(b, &mut seen, &mut out);
        assert_eq!(out, vec![2, 7, 40, 41], "7 appended once");
    }

    #[test]
    fn interner_sorted_slice_for_sparse_only() {
        let mut pool = BitSetInterner::new(256);
        let sparse = pool.intern(&[3, 9, 200]);
        assert_eq!(pool.as_sorted_slice(sparse), Some(&[3u32, 9, 200][..]));
        let big: Vec<u32> = (0..128).collect();
        let dense = pool.intern(&big);
        assert_eq!(pool.as_sorted_slice(dense), None, "dense sets are blocks");
    }

    #[test]
    fn interner_empty_set() {
        let mut pool = BitSetInterner::new(10);
        let a = pool.intern(&[]);
        let b = pool.intern(&[]);
        assert_eq!(a, b);
        assert_eq!(pool.set_len(a), 0);
        assert_eq!(pool.stored_elements(), 0);
    }

    /// The order check is a `debug_assert` (interning is a hot path), so
    /// only debug builds have a panic to expect.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sorted and unique")]
    fn interner_rejects_unsorted_ids() {
        BitSetInterner::new(10).intern(&[5, 3]);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn interner_rejects_out_of_range_ids() {
        BitSetInterner::new(10).intern(&[10]);
    }

    fn decode(bytes: Vec<u8>) -> Result<SetTable, SnapshotError> {
        let section = perils_util::snapshot::Section::from_vec(bytes);
        let mut dec = StoreDec::new(&section, "POOL");
        let table = SetTable::decode_from(&mut dec)?;
        dec.finish()?;
        Ok(table)
    }

    #[test]
    fn set_table_answers_like_the_interner_it_was_encoded_from() {
        let mut pool = BitSetInterner::new(256);
        let ids = [
            pool.intern(&[1, 5, 200]),
            pool.intern(&(0..128).collect::<Vec<u32>>()),
            pool.intern(&[]),
            pool.intern(&(64..200).step_by(2).collect::<Vec<u32>>()),
            pool.intern(&[255]),
        ];
        let mut bytes = Vec::new();
        pool.encode_into(&mut bytes);
        let table = decode(bytes).expect("table decodes");
        assert_eq!(table.capacity(), pool.capacity());
        assert_eq!(table.len(), pool.len());
        assert!(
            pool.as_sorted_slice(ids[1]).is_none(),
            "a dense set is covered"
        );
        let mut seen_pool = BitSet::new(256);
        let mut seen_table = BitSet::new(256);
        let (mut union_pool, mut union_table) = (Vec::new(), Vec::new());
        for id in ids {
            assert_eq!(table.set_len(id), pool.set_len(id), "{id:?}");
            let (mut want, mut got) = (Vec::new(), Vec::new());
            pool.for_each(id, |v| want.push(v));
            table.for_each(id, |v| got.push(v));
            assert_eq!(got, want, "{id:?}");
            pool.union_into(id, &mut seen_pool, &mut union_pool);
            table.union_into(id, &mut seen_table, &mut union_table);
            assert_eq!(union_table, union_pool, "union through {id:?}");
        }
    }

    #[test]
    fn interner_codec_rejects_structural_corruption() {
        let mut pool = BitSetInterner::new(256);
        pool.intern(&[1, 5, 200]);
        pool.intern(&(0..128).collect::<Vec<u32>>());
        let mut bytes = Vec::new();
        pool.encode_into(&mut bytes);
        for byte in 0..bytes.len() {
            for flip in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[byte] ^= flip;
                // Must never panic; errors or a structurally valid
                // (but different) table are both acceptable — in
                // the full archive the section checksum rejects the
                // latter.
                if let Ok(table) = decode(bad) {
                    let _ = table.len();
                }
            }
        }
    }

    #[test]
    fn from_iterator() {
        let s: BitSet = [5usize, 2, 9].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 5, 9]);
        let empty: BitSet = std::iter::empty::<usize>().collect();
        assert_eq!(empty.capacity(), 0);
        assert!(empty.is_empty());
    }
}
