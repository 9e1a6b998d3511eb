//! A fixed-capacity bitset over `u64` blocks, plus an interner for
//! memoized set storage.
//!
//! Reachability and closure computations over survey-scale graphs need cheap
//! set union and membership; [`BitSet`] is the usual packed representation.
//! [`BitSetInterner`] stores many related sets compactly — each distinct
//! set once, as a sorted run of ids in one shared arena, with set `i`
//! spanning `arena[offsets[i]..offsets[i + 1]]` — which is what lets the
//! dependency index memoize one reachable set per strongly connected
//! component without quadratic memory. The interner only builds; what it
//! built is read back as a [`SetTable`] over an archive's byte store, in
//! the same two arrays.

use std::collections::HashMap;

use perils_util::bytestore::U32View;
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

/// A deduplicating arena of sets over `[0, capacity)` — the build side.
///
/// `intern` stores each distinct set once and hands out a [`SetId`];
/// identical sets (e.g. the zone closures of sibling registry servers)
/// share storage. Every set is a sorted run of ids appended to one shared
/// arena in intern order, so set `i` is `arena[offsets[i]..offsets[i + 1]]`
/// and its length is implied by the offsets. Once built, the arena is
/// written out with [`BitSetInterner::encode_into`] and read back as a
/// [`SetTable`].
#[derive(Debug)]
pub struct BitSetInterner {
    capacity: usize,
    /// Run boundaries: one entry per set plus a leading zero.
    offsets: Vec<u32>,
    /// Shared element storage of every set.
    arena: Vec<u32>,
    /// FNV-1a hash of the sorted ids → first set with that hash (further
    /// same-hash sets go to `overflow`; collisions of *distinct* sets are
    /// vanishingly rare, so the common case costs one map probe and no
    /// per-bucket allocation).
    by_hash: HashMap<u64, SetId>,
    /// Rare same-hash-different-content candidates, scanned linearly.
    overflow: Vec<(u64, SetId)>,
}

impl BitSetInterner {
    /// Creates an empty interner for sets over `[0, capacity)`.
    pub fn new(capacity: usize) -> BitSetInterner {
        BitSetInterner {
            capacity,
            offsets: vec![0],
            arena: Vec::new(),
            by_hash: HashMap::new(),
            overflow: Vec::new(),
        }
    }

    /// The element capacity sets are bounded by.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of distinct sets stored.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no set has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
                if self.as_sorted_slice(first) == ids {
                    return first;
                }
                for &(h, id) in &self.overflow {
                    if h == hash && self.as_sorted_slice(id) == ids {
                        return id;
                    }
                }
                let id = push_run(&mut self.offsets, &mut self.arena, ids);
                self.overflow.push((hash, id));
                id
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                let id = push_run(&mut self.offsets, &mut self.arena, ids);
                slot.insert(id);
                id
            }
        }
    }

    /// Borrows the sorted element slice of set `id` — the merge fast path
    /// of the memoization pass.
    pub fn as_sorted_slice(&self, id: SetId) -> &[u32] {
        let i = id.index();
        &self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize]
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
        for &v in self.as_sorted_slice(id) {
            if seen.insert(v as usize) {
                out.push(v);
            }
        }
    }

    /// Appends this interner's two arrays — the run offsets, then the
    /// shared arena — as length-prefixed little-endian `u32` arrays. The
    /// capacity is not written: the reader knows its element universe.
    /// Pair with [`SetTable::decode_from`] at the same capacity; the table
    /// answers every query with the same ids and elements as this
    /// interner.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        snapshot::put_u32_slice(out, &self.offsets);
        snapshot::put_u32_slice(out, &self.arena);
    }
}

/// The read side of a [`BitSetInterner`]: the sets it built, decoded from
/// its [`BitSetInterner::encode_into`] bytes. Read-only — the offsets and
/// the arena stay views into the archive's byte store, and nothing can be
/// interned into a table.
#[derive(Debug, Clone)]
pub struct SetTable {
    capacity: usize,
    offsets: U32View,
    arena: U32View,
}

impl SetTable {
    /// Reads a table over `[0, capacity)` from
    /// [`BitSetInterner::encode_into`] bytes written at that capacity.
    ///
    /// Every structural claim is validated before use — the offsets start
    /// at zero, never decrease and end at the arena's length, and every run
    /// is strictly ascending below the capacity — so a corrupt section
    /// yields a typed error, never a panic or a silently wrong set. One
    /// streamed pass over the offsets checks each run as it closes,
    /// without materializing either array.
    pub fn decode_from(dec: &mut StoreDec, capacity: usize) -> Result<SetTable, SnapshotError> {
        let offsets = dec.u32_arr()?;
        let arena = dec.u32_arr()?;
        let mut start: Option<u32> = None;
        let mut set = 0usize;
        offsets.try_for_each(|end| {
            let Some(start) = start.replace(end) else {
                if end != 0 {
                    return Err(dec.malformed(format!("set offsets start at {end}, not 0")));
                }
                return Ok(());
            };
            if end < start {
                return Err(
                    dec.malformed(format!("set {set} offsets decrease from {start} to {end}"))
                );
            }
            if end as usize > arena.len() {
                return Err(dec.malformed(format!(
                    "set {set} ends at {end}, past the arena of {}",
                    arena.len()
                )));
            }
            let mut prev: Option<u32> = None;
            arena.try_for_each_in(start as usize..end as usize, |v| {
                if prev.is_some_and(|p| p >= v) {
                    return Err(dec.malformed(format!("set {set} is not sorted-unique")));
                }
                if v as usize >= capacity {
                    return Err(dec.malformed(format!(
                        "set {set} has an element out of capacity {capacity}"
                    )));
                }
                prev = Some(v);
                Ok(())
            })?;
            set += 1;
            Ok(())
        })?;
        let last = start.ok_or_else(|| dec.malformed("set offsets are empty: no leading 0"))?;
        if last as usize != arena.len() {
            return Err(dec.malformed(format!(
                "set offsets end at {last} but the arena holds {}",
                arena.len()
            )));
        }
        Ok(SetTable {
            capacity,
            offsets,
            arena,
        })
    }

    /// The element capacity sets are bounded by.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of distinct sets stored.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the table holds no set.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `f` for every element of set `id`, ascending.
    pub fn for_each(&self, id: SetId, f: impl FnMut(u32)) {
        let i = id.index();
        let run = self.offsets.get(i) as usize..self.offsets.get(i + 1) as usize;
        self.arena.for_each_in(run, f);
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

/// Appends `ids` to `arena` as a new run, closes it in `offsets` and
/// returns its id. Takes the two fields, not the interner, so `intern`
/// can call it while holding its hash-map entry.
fn push_run(offsets: &mut Vec<u32>, arena: &mut Vec<u32>, ids: &[u32]) -> SetId {
    let id = SetId(u32::try_from(offsets.len() - 1).expect("interner set count fits u32"));
    arena.extend_from_slice(ids);
    offsets.push(u32::try_from(arena.len()).expect("interner arena fits u32"));
    id
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
        assert_eq!(pool.as_sorted_slice(a), &[1, 5, 900]);
    }

    /// A set holding half the capacity is one run like any other, and the
    /// table decoded from it streams and unions it exactly as the
    /// interner does.
    #[test]
    fn interner_large_set_round_trips_through_a_table() {
        let mut pool = BitSetInterner::new(96);
        let big: Vec<u32> = (0..96).step_by(2).collect();
        assert!(big.len() * 32 >= pool.capacity(), "above capacity/32");
        let id = pool.intern(&big);
        let small = pool.intern(&[3, 4, 95]);
        assert_eq!(pool.intern(&big), id, "a large set dedupes");
        assert_eq!(pool.as_sorted_slice(id), &big[..]);
        let mut bytes = Vec::new();
        pool.encode_into(&mut bytes);
        let table = decode(bytes, pool.capacity()).expect("table decodes");
        assert_eq!(table.len(), 2);
        let mut got = Vec::new();
        table.for_each(id, |v| got.push(v));
        assert_eq!(got, big);
        let (mut seen_pool, mut seen_table) = (BitSet::new(96), BitSet::new(96));
        let (mut union_pool, mut union_table) = (Vec::new(), Vec::new());
        for id in [small, id] {
            pool.union_into(id, &mut seen_pool, &mut union_pool);
            table.union_into(id, &mut seen_table, &mut union_table);
            assert_eq!(union_table, union_pool, "union through {id:?}");
        }
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
    fn interner_sorted_slice_covers_every_set() {
        let mut pool = BitSetInterner::new(256);
        let small = pool.intern(&[3, 9, 200]);
        let big: Vec<u32> = (0..128).collect();
        let large = pool.intern(&big);
        assert_eq!(pool.as_sorted_slice(small), &[3, 9, 200]);
        assert_eq!(pool.as_sorted_slice(large), &big[..]);
    }

    #[test]
    fn interner_empty_set() {
        let mut pool = BitSetInterner::new(10);
        let a = pool.intern(&[]);
        let b = pool.intern(&[]);
        assert_eq!(a, b);
        assert!(pool.as_sorted_slice(a).is_empty());
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

    fn decode(bytes: Vec<u8>, capacity: usize) -> Result<SetTable, SnapshotError> {
        let section = perils_util::snapshot::Section::from_vec(bytes);
        let mut dec = StoreDec::new(&section, "POOL");
        let table = SetTable::decode_from(&mut dec, capacity)?;
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
        let table = decode(bytes, pool.capacity()).expect("table decodes");
        assert_eq!(table.capacity(), pool.capacity());
        assert_eq!(table.len(), pool.len());
        let mut seen_pool = BitSet::new(256);
        let mut seen_table = BitSet::new(256);
        let (mut union_pool, mut union_table) = (Vec::new(), Vec::new());
        for id in ids {
            let mut got = Vec::new();
            table.for_each(id, |v| got.push(v));
            assert_eq!(got, pool.as_sorted_slice(id), "{id:?}");
            pool.union_into(id, &mut seen_pool, &mut union_pool);
            table.union_into(id, &mut seen_table, &mut union_table);
            assert_eq!(union_table, union_pool, "union through {id:?}");
        }
    }

    /// The two arrays as bytes, each length-prefixed.
    fn encode_arrays(offsets: &[u32], arena: &[u32]) -> Vec<u8> {
        let mut bytes = Vec::new();
        snapshot::put_u32_slice(&mut bytes, offsets);
        snapshot::put_u32_slice(&mut bytes, arena);
        bytes
    }

    #[test]
    fn interner_codec_rejects_structural_corruption() {
        let mut pool = BitSetInterner::new(256);
        pool.intern(&[1, 5, 200]);
        pool.intern(&(0..128).collect::<Vec<u32>>());
        pool.intern(&[7]);
        let mut bytes = Vec::new();
        pool.encode_into(&mut bytes);
        assert_eq!(bytes, encode_arrays(&[0, 3, 131, 132], &pool.arena));
        // Each planted offset or run fault is a typed `Malformed` error.
        let arena: Vec<u32> = [1, 5, 200, 7].into();
        for (what, offsets, arena) in [
            ("no leading zero", vec![], arena.clone()),
            ("a nonzero first offset", vec![1, 3, 4], arena.clone()),
            ("decreasing offsets", vec![0, 3, 2, 4], arena.clone()),
            ("an offset past the arena", vec![0, 3, 5], arena.clone()),
            (
                "a last offset short of the arena",
                vec![0, 3],
                arena.clone(),
            ),
            ("an unsorted run", vec![0, 3, 4], vec![1, 200, 5, 7]),
            ("a repeated element", vec![0, 3, 4], vec![1, 5, 5, 7]),
            (
                "an element at the capacity",
                vec![0, 3, 4],
                vec![1, 5, 256, 7],
            ),
        ] {
            assert!(
                matches!(
                    decode(encode_arrays(&offsets, &arena), 256),
                    Err(SnapshotError::Malformed { .. })
                ),
                "{what}"
            );
        }
        for byte in 0..bytes.len() {
            for flip in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[byte] ^= flip;
                // Must never panic; errors or a structurally valid
                // (but different) table are both acceptable — in
                // the full archive the section checksum rejects the
                // latter.
                if let Ok(table) = decode(bad, pool.capacity()) {
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
