//! Per-name dependency closures — the delegation graph's node set.
//!
//! "The delegation graph consists of the transitive closure of all
//! nameservers involved in the resolution of a given name" (§2). For a
//! target name: every zone on its delegation chain contributes its full NS
//! set; every one of those nameserver *names* contributes the closure of
//! its own chain; and so on to a fixed point.
//!
//! [`DependencyIndex`] precomputes that fixed point for the whole universe
//! so the survey can process hundreds of thousands of names:
//!
//! * dependency rows are stored once **per zone** (a server's row is its
//!   home zone's row; sibling nameservers share) and built by recurrence
//!   over the zone tree — each row is a memcpy of its parent zone's row
//!   plus the zone's own NS set, with no name hashing on the hot path
//!   (see `build_zone_rows`). Chains are not stored at all: a server's
//!   chain is read off the universe's parent links
//!   ([`Universe::server_chain_up`]);
//! * the implicit server→server dependency graph is condensed through
//!   [`perils_graph::scc::tarjan_scc_with`] without materializing
//!   per-server edges (delegation webs are cyclic — cornell ↔ rochester
//!   in Figure 1), and every component's reachable server/zone set is
//!   memoized once as an interned set
//!   ([`perils_graph::bitset::BitSetInterner`]). Memoization runs
//!   **level-parallel**: components are grouped by topological level over
//!   the condensation (a level depends only on deeper levels), each
//!   level's sets are computed across worker threads, and the merge
//!   thread interns them in component order — deterministic and
//!   thread-count invariant by construction;
//! * the build finishes through the archive decoder: its tables are
//!   written in the `DEPINDEX` layout into a heap byte store and decoded
//!   back ([`crate::snapshot::decode_dep_index`]), so a built index and one
//!   loaded from a `.psa` archive are the same thing — flat
//!   [`U32View`]s and [`SetTable`]s over a store.
//!
//! # Reading closures: views, not sets
//!
//! The read side is [`DependencyIndex::closure_view`]: it returns a
//! [`ClosureView`] — the closure as **borrowed sorted slices** assembled
//! in the caller's reusable [`ClosureWorkspace`] (a single-component
//! closure is its component's memoized set, streamed out of the store in
//! order). The engine's per-name hot loop therefore
//! allocates nothing per name: no `BTreeSet`s, no chain vector, no
//! lowercased name. A view is `Copy`, cheap to pass to every registered
//! metric, and answers membership queries by binary search.
//!
//! The view is the only closure type: every consumer — the survey's
//! metrics, lint, the attack and DNSSEC simulations, the hijack searches
//! — reads one, and a caller that needs the closure past the workspace's
//! next use collects the iterators it needs. Two independent oracles stay
//! for the property tests: [`DependencyIndex::closure_for_bfs`], the
//! legacy per-name BFS, and [`extract_universe`], which pushes a closure
//! back through the universe builder by name.
//!
//! A closure is a pure function of the target's delegation chain: the view
//! derives everything from [`ClosureView::target_chain`], so two names with
//! equal chains (`www.example.com` and `mail.example.com`) have identical
//! closures — the invariant per-chain metric caches (e.g. the min-cut
//! metric's) rely on.

use crate::snapshot::{decode_dep_index, put_ids};
use crate::universe::{ServerId, Universe, ZoneId};
use perils_dns::name::DnsName;
use perils_graph::bitset::{BitSet, BitSetInterner, SetId, SetTable};
use perils_graph::csr::Csr;
use perils_graph::scc::SccResult;
use perils_util::snapshot::{self, Section, SnapshotError};
use perils_util::U32View;
use std::collections::BTreeSet;

/// Precomputed dependency structure over a universe.
///
/// A server's delegation chain — and with it its dependency row — is a
/// function of its **home zone** (the deepest zone enclosing its name):
/// every ancestor zone of the server's name is an ancestor zone of that
/// origin. The index therefore stores dependency rows once per *zone* and
/// maps each server to its home zone, instead of duplicating rows per
/// server: sibling nameservers (`ns1`/`ns2`/`ns3` of one domain)
/// share one row, the edge array shrinks accordingly, and the SCC pass
/// runs over the implicit per-server graph without materializing a
/// per-server edge copy.
/// Every flat table is a [`U32View`] into the `DEPINDEX` section it was
/// decoded from — a fresh build's heap store or a loaded archive's.
#[derive(Debug, Clone)]
pub struct DependencyIndex {
    /// Per server: index of its home zone, or `u32::MAX` when no zone
    /// encloses the server's name (its row is empty). Chains are not
    /// stored: a server's chain is its home zone and that zone's parent
    /// links ([`Universe::server_chain_up`]), which the memoization and
    /// the min-cut walk read off the universe.
    home_zone: U32View,
    /// CSR rows per zone: the servers an address resolution under this
    /// zone could involve — the NS sets of every chain zone, deduplicated
    /// in first-occurrence order. Targets are raw [`ServerId`] values.
    zone_dep_offsets: U32View,
    zone_dep_targets: U32View,
    /// Strongly connected component of each server in the dependency
    /// graph.
    component_of: U32View,
    /// Per-component memoized reachable servers (the component's members
    /// plus everything any member transitively depends on), as raw
    /// [`SetId`] values.
    component_servers: U32View,
    /// Per-component memoized zones: the chains of every reachable server,
    /// as raw [`SetId`] values.
    component_zones: U32View,
    server_sets: SetTable,
    zone_sets: SetTable,
    /// The `DEPINDEX` payload every table above is a view into.
    section: Section,
}

/// Equality of the `DEPINDEX` payloads, which encode every flat table and
/// both set tables field by field — the round-trip contract of the
/// snapshot archive. Two indexes built from equal universes by the same
/// algorithm compare equal (the build is deterministic); an index
/// reconstituted from an archive compares equal to the one that wrote it.
impl PartialEq for DependencyIndex {
    fn eq(&self, other: &DependencyIndex) -> bool {
        self.section_bytes() == other.section_bytes()
    }
}

/// Error channel for the streaming snapshot validators: a structural
/// finding (a message) or a store failure raised mid-stream by a paged
/// view. Both flatten to the `String` the decode layer wraps.
enum CheckError {
    Msg(String),
    Store(SnapshotError),
}

impl From<SnapshotError> for CheckError {
    fn from(e: SnapshotError) -> CheckError {
        CheckError::Store(e)
    }
}

impl From<CheckError> for String {
    fn from(e: CheckError) -> String {
        match e {
            CheckError::Msg(m) => m,
            CheckError::Store(s) => s.to_string(),
        }
    }
}

/// Wall time of each stage of a [`DependencyIndex`] build, as measured by
/// [`DependencyIndex::build_with_stats`]: the zone-row recurrence, the SCC
/// pass, the condensation, and the per-component memoization.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexBuildStats {
    /// Phase 1a: dependency rows by recurrence over the zone tree.
    pub zone_rows: std::time::Duration,
    /// Phase 2: strongly connected components of the dependency graph.
    pub scc: std::time::Duration,
    /// Phase 2: condensation of the SCC partition into a DAG.
    pub condense: std::time::Duration,
    /// Phase 2: per-component closure memoization and interning.
    pub memoize: std::time::Duration,
}

/// Reusable scratch for [`DependencyIndex::closure_view`]: the chain
/// buffer, dedup bitsets and output slices a view borrows from, hoisted
/// out of the hot loop so a survey worker thread allocates once, not once
/// per name.
#[derive(Debug)]
pub struct ClosureWorkspace {
    chain: Vec<ZoneId>,
    seen_servers: BitSet,
    seen_zones: BitSet,
    servers: Vec<u32>,
    zones: Vec<u32>,
    seed_components: Vec<u32>,
}

/// Phase-1 output: per-zone dependency rows (CSR), in zone-id order.
struct ZoneRowTables {
    dep_offsets: Vec<u32>,
    dep_targets: Vec<ServerId>,
}

/// Below this many zones in a depth level, the tree-parallel zone-row
/// pass processes the level inline: a scope spawn costs more than a few
/// hundred `extend_from_slice` rows.
const ZONE_LEVEL_PARALLEL_THRESHOLD: usize = 512;

/// The rows of a run of same-depth zones: one buffer plus
/// `(zone, offset, len)` descriptors with run-local offsets, rebased at
/// merge.
#[derive(Default)]
struct LevelChunk {
    dep: Vec<ServerId>,
    rows: Vec<(u32, u32, u32)>,
}

/// Computes the rows of `zones` (all of one depth) from the merged rows
/// of shallower zones in `dep`/`dep_pos`. `stamps[s] == z` ⇔ server `s`
/// is already on zone `z`'s row (epoch-per-zone linear dedup).
fn level_rows(
    universe: &Universe,
    zones: &[u32],
    dep: &[ServerId],
    dep_pos: &[(u32, u32)],
    stamps: &mut [u32],
) -> LevelChunk {
    let mut chunk = LevelChunk::default();
    for &z in zones {
        let zone = universe.zone(ZoneId(z));
        let start = chunk.dep.len();
        if let Some(p) = universe.parent_zone_of(ZoneId(z)) {
            let (o, l) = dep_pos[p.index()];
            chunk
                .dep
                .extend_from_slice(&dep[o as usize..(o + l) as usize]);
        }
        if !zone.origin.is_root() {
            for &sid in &chunk.dep[start..] {
                stamps[sid.index()] = z;
            }
            for &ns in &zone.ns {
                if stamps[ns.index()] != z {
                    stamps[ns.index()] = z;
                    chunk.dep.push(ns);
                }
            }
        }
        chunk
            .rows
            .push((z, start as u32, (chunk.dep.len() - start) as u32));
    }
    chunk
}

/// Computes every zone's dependency row **by recurrence over the zone
/// tree**: `dep(z) = dep(parent(z)) ++ (NS(z) not already present)` — the
/// parent zone ([`Universe::parent_zone_of`], precomputed at universe
/// build) is the deepest zone strictly enclosing `z`'s origin, so its
/// row covers exactly `z`'s proper enclosing zones. Processing zones
/// shallowest-first makes each row one copy of its parent's row plus a
/// stamp-deduplicated append of the zone's own NS set: no name hashing,
/// no chain re-scans, and every probe O(1) — the whole pass is linear in
/// the total row length.
///
/// The recurrence is **tree-parallel**: every zone at depth `d` depends
/// only on rows at depths `< d`, so each depth level fans out across
/// workers once the level is wide enough ([`ZONE_LEVEL_PARALLEL_THRESHOLD`]).
/// Rows are reassembled in zone-id order, so the tables are identical
/// at any thread count.
fn build_zone_rows(universe: &Universe, threads: usize) -> ZoneRowTables {
    let zn = universe.zone_count();
    // Counting sort by origin depth: parents precede children.
    let mut depth_count: Vec<u32> = Vec::new();
    let depths: Vec<u32> = (0..zn)
        .map(|z| {
            let d = universe.zone(ZoneId(z as u32)).origin.label_count() as u32;
            if depth_count.len() <= d as usize {
                depth_count.resize(d as usize + 1, 0);
            }
            depth_count[d as usize] += 1;
            d
        })
        .collect();
    let mut starts = vec![0u32; depth_count.len() + 1];
    for (d, &count) in depth_count.iter().enumerate() {
        starts[d + 1] = starts[d] + count;
    }
    let mut order = vec![0u32; zn];
    let mut cursor = starts.clone();
    for (z, &d) in depths.iter().enumerate() {
        order[cursor[d as usize] as usize] = z as u32;
        cursor[d as usize] += 1;
    }

    // Rows in processing order, then reassembled in id order below.
    let mut stamps = vec![u32::MAX; universe.server_count()];
    let mut dep_tmp: Vec<ServerId> = Vec::new();
    let mut dep_pos: Vec<(u32, u32)> = vec![(0, 0); zn];
    for d in 0..depth_count.len() {
        let bucket = &order[starts[d] as usize..starts[d + 1] as usize];
        let level_chunks = if threads == 1 || bucket.len() < ZONE_LEVEL_PARALLEL_THRESHOLD {
            vec![level_rows(
                universe,
                bucket,
                &dep_tmp,
                &dep_pos,
                &mut stamps,
            )]
        } else {
            // Every row at this depth reads only rows from shallower
            // depths — already merged into `dep_tmp` — so the level fans
            // out across workers with private output buffers.
            let chunk_len = bucket.len().div_ceil(threads).max(1);
            let (dep_ref, dep_pos_ref) = (&dep_tmp, &dep_pos);
            let mut level_chunks: Vec<LevelChunk> = Vec::new();
            crossbeam::thread::scope(|scope| {
                let mut handles = Vec::new();
                for zones in bucket.chunks(chunk_len) {
                    handles.push(scope.spawn(move |_| {
                        let mut stamps = vec![u32::MAX; universe.server_count()];
                        level_rows(universe, zones, dep_ref, dep_pos_ref, &mut stamps)
                    }));
                }
                for handle in handles {
                    level_chunks.push(handle.join().expect("zone row shard panicked"));
                }
            })
            .expect("crossbeam scope");
            level_chunks
        };
        for chunk in level_chunks {
            let base = dep_tmp.len() as u32;
            dep_tmp.extend_from_slice(&chunk.dep);
            for (z, offset, len) in chunk.rows {
                dep_pos[z as usize] = (base + offset, len);
            }
        }
        assert!(
            u32::try_from(dep_tmp.len()).is_ok(),
            "zone row tables fit u32"
        );
    }

    let mut tables = ZoneRowTables {
        dep_offsets: Vec::with_capacity(zn + 1),
        dep_targets: Vec::with_capacity(dep_tmp.len()),
    };
    tables.dep_offsets.push(0);
    for &(o, l) in &dep_pos {
        tables
            .dep_targets
            .extend_from_slice(&dep_tmp[o as usize..(o + l) as usize]);
        tables.dep_offsets.push(tables.dep_targets.len() as u32);
    }
    tables
}

/// The memoization phase's output: one interned server set and one
/// interned zone set per strongly connected component.
struct MemoResult {
    component_servers: Vec<SetId>,
    component_zones: Vec<SetId>,
    server_sets: BitSetInterner,
    zone_sets: BitSetInterner,
}

/// Per-worker scratch of the memoization phase.
struct MemoScratch {
    seen_servers: BitSet,
    seen_zones: BitSet,
    out_servers: Vec<u32>,
    out_zones: Vec<u32>,
    tmp: Vec<u32>,
}

impl MemoScratch {
    fn new(server_capacity: usize, zone_capacity: usize) -> MemoScratch {
        MemoScratch {
            seen_servers: BitSet::new(server_capacity),
            seen_zones: BitSet::new(zone_capacity),
            out_servers: Vec::new(),
            out_zones: Vec::new(),
            tmp: Vec::new(),
        }
    }
}

/// Sorted-merge union of two sorted, duplicate-free slices into `out`.
fn union_merge(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Above this condensation fan-out the bitset union path wins over
/// repeated sorted merges (each merge re-traverses the accumulated set).
const MERGE_MAX_FANOUT: usize = 4;

/// Everything the memoization phase reads, bundled so worker closures
/// borrow one struct. A member's zones are its chain, read off the
/// universe's parent links ([`Universe::server_chain_up`]).
struct MemoInput<'a> {
    scc: &'a SccResult,
    dag: &'a Csr,
    universe: &'a Universe,
}

impl MemoInput<'_> {
    /// Computes component `c`'s reachable server/zone sets into `scratch`
    /// (sorted, deduplicated; scratch bitsets are left clean). Successor
    /// components must already be memoized in `servers`/`zones`.
    fn component_sets(
        &self,
        c: usize,
        server_sets: &BitSetInterner,
        zone_sets: &BitSetInterner,
        component_servers: &[Option<SetId>],
        component_zones: &[Option<SetId>],
        scratch: &mut MemoScratch,
    ) {
        let members = &self.scc.components[c];
        let neighbors = self.dag.neighbors(c);

        // Merge fast path: the typical component has one or two sparse
        // successor sets, so a fold of sorted merges beats the bitset
        // bookkeeping plus a full sort. (Components partition the server
        // set, so members are disjoint from every successor's servers;
        // successors may still overlap each other, which merge dedups.)
        let mergeable = neighbors.len() <= MERGE_MAX_FANOUT
            && neighbors.iter().all(|&d| {
                let sv = component_servers[d as usize].expect("successor memoized first");
                let zv = component_zones[d as usize].expect("successor memoized first");
                server_sets.as_sorted_slice(sv).is_some() && zone_sets.as_sorted_slice(zv).is_some()
            });
        if mergeable {
            scratch.out_servers.clear();
            scratch
                .out_servers
                .extend(members.iter().map(|m| m.index() as u32));
            scratch.out_servers.sort_unstable();
            scratch.out_zones.clear();
            for member in members {
                scratch.out_zones.extend(
                    self.universe
                        .server_chain_up(ServerId(member.index() as u32))
                        .map(|zid| zid.0),
                );
            }
            scratch.out_zones.sort_unstable();
            scratch.out_zones.dedup();
            for &d in neighbors {
                let sv = component_servers[d as usize].expect("successor memoized first");
                let zv = component_zones[d as usize].expect("successor memoized first");
                let set = server_sets.as_sorted_slice(sv).expect("checked sparse");
                union_merge(&scratch.out_servers, set, &mut scratch.tmp);
                std::mem::swap(&mut scratch.out_servers, &mut scratch.tmp);
                let set = zone_sets.as_sorted_slice(zv).expect("checked sparse");
                union_merge(&scratch.out_zones, set, &mut scratch.tmp);
                std::mem::swap(&mut scratch.out_zones, &mut scratch.tmp);
            }
            return;
        }

        // Bitset path: dense successors or wide fan-out.
        scratch.out_servers.clear();
        scratch.out_zones.clear();
        for member in members {
            let s = member.index();
            if scratch.seen_servers.insert(s) {
                scratch.out_servers.push(s as u32);
            }
            for zid in self.universe.server_chain_up(ServerId(s as u32)) {
                if scratch.seen_zones.insert(zid.index()) {
                    scratch.out_zones.push(zid.0);
                }
            }
        }
        for &d in neighbors {
            let sv = component_servers[d as usize].expect("successor memoized first");
            let zv = component_zones[d as usize].expect("successor memoized first");
            server_sets.union_into(sv, &mut scratch.seen_servers, &mut scratch.out_servers);
            zone_sets.union_into(zv, &mut scratch.seen_zones, &mut scratch.out_zones);
        }
        scratch.out_servers.sort_unstable();
        scratch.out_zones.sort_unstable();
        // Sparse clear keeps the whole pass linear in output size.
        for &v in &scratch.out_servers {
            scratch.seen_servers.remove(v as usize);
        }
        for &v in &scratch.out_zones {
            scratch.seen_zones.remove(v as usize);
        }
    }
}

/// One worker's memoized sets for a contiguous chunk of a level: server
/// then zone elements per component, concatenated, with per-component
/// lengths and precomputed content hashes so the merge thread interns
/// without re-hashing.
struct MemoChunk {
    data: Vec<u32>,
    /// `(server_len, zone_len, server_hash, zone_hash)` per component.
    meta: Vec<(u32, u32, u64, u64)>,
}

fn memoize_chunk(
    input: &MemoInput<'_>,
    comps: &[u32],
    server_sets: &BitSetInterner,
    zone_sets: &BitSetInterner,
    component_servers: &[Option<SetId>],
    component_zones: &[Option<SetId>],
    scratch: &mut MemoScratch,
) -> MemoChunk {
    let mut chunk = MemoChunk {
        data: Vec::new(),
        meta: Vec::with_capacity(comps.len()),
    };
    for &c in comps {
        input.component_sets(
            c as usize,
            server_sets,
            zone_sets,
            component_servers,
            component_zones,
            scratch,
        );
        chunk.meta.push((
            scratch.out_servers.len() as u32,
            scratch.out_zones.len() as u32,
            BitSetInterner::hash_ids(&scratch.out_servers),
            BitSetInterner::hash_ids(&scratch.out_zones),
        ));
        chunk.data.extend_from_slice(&scratch.out_servers);
        chunk.data.extend_from_slice(&scratch.out_zones);
    }
    chunk
}

/// Below this many components a level is memoized inline — spawning
/// workers costs more than the unions do.
const LEVEL_PARALLEL_THRESHOLD: usize = 1024;

/// Serial memoization: one bottom-up pass in ascending component id order
/// (component ids are reverse topological, so every successor is final
/// before its dependents are visited).
fn memoize_serial(
    input: &MemoInput<'_>,
    server_capacity: usize,
    zone_capacity: usize,
) -> MemoResult {
    let count = input.scc.count();
    let mut server_sets = BitSetInterner::new(server_capacity);
    let mut zone_sets = BitSetInterner::new(zone_capacity);
    let mut component_servers: Vec<Option<SetId>> = vec![None; count];
    let mut component_zones: Vec<Option<SetId>> = vec![None; count];
    let mut scratch = MemoScratch::new(server_capacity, zone_capacity);
    for c in 0..count {
        input.component_sets(
            c,
            &server_sets,
            &zone_sets,
            &component_servers,
            &component_zones,
            &mut scratch,
        );
        component_servers[c] = Some(server_sets.intern(&scratch.out_servers));
        component_zones[c] = Some(zone_sets.intern(&scratch.out_zones));
    }
    MemoResult {
        component_servers: component_servers.into_iter().map(Option::unwrap).collect(),
        component_zones: component_zones.into_iter().map(Option::unwrap).collect(),
        server_sets,
        zone_sets,
    }
}

/// Level-parallel memoization: components grouped by topological level
/// over the condensation (level 0 depends on nothing; a component's level
/// is one past its deepest successor), each level's sets computed across
/// `threads` workers, interned on the merge thread in component order.
/// Closure contents are identical to [`memoize_serial`] for every
/// component and invariant in the thread count — only the interner's
/// internal id assignment order differs, which nothing observes.
fn memoize_levels(
    input: &MemoInput<'_>,
    server_capacity: usize,
    zone_capacity: usize,
    threads: usize,
) -> MemoResult {
    let count = input.scc.count();
    let mut level = vec![0u32; count];
    let mut max_level = 0u32;
    for c in 0..count {
        let mut l = 0u32;
        for &d in input.dag.neighbors(c) {
            debug_assert!((d as usize) < c, "condensation is reverse topological");
            l = l.max(level[d as usize] + 1);
        }
        level[c] = l;
        max_level = max_level.max(l);
    }
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_level as usize + 1];
    for c in 0..count {
        buckets[level[c] as usize].push(c as u32);
    }

    let mut server_sets = BitSetInterner::new(server_capacity);
    let mut zone_sets = BitSetInterner::new(zone_capacity);
    let mut component_servers: Vec<Option<SetId>> = vec![None; count];
    let mut component_zones: Vec<Option<SetId>> = vec![None; count];
    let mut scratch = MemoScratch::new(server_capacity, zone_capacity);

    for bucket in &buckets {
        let chunks: Vec<MemoChunk> = if bucket.len() < LEVEL_PARALLEL_THRESHOLD || threads == 1 {
            vec![memoize_chunk(
                input,
                bucket,
                &server_sets,
                &zone_sets,
                &component_servers,
                &component_zones,
                &mut scratch,
            )]
        } else {
            let chunk_len = bucket.len().div_ceil(threads).max(1);
            let server_sets = &server_sets;
            let zone_sets = &zone_sets;
            let component_servers = &component_servers;
            let component_zones = &component_zones;
            let mut chunks = Vec::new();
            crossbeam::thread::scope(|scope| {
                let mut handles = Vec::new();
                for comps in bucket.chunks(chunk_len) {
                    handles.push(scope.spawn(move |_| {
                        let mut scratch = MemoScratch::new(server_capacity, zone_capacity);
                        memoize_chunk(
                            input,
                            comps,
                            server_sets,
                            zone_sets,
                            component_servers,
                            component_zones,
                            &mut scratch,
                        )
                    }));
                }
                for handle in handles {
                    chunks.push(handle.join().expect("memoize shard panicked"));
                }
            })
            .expect("crossbeam scope");
            chunks
        };

        // Intern this level's sets in component order: the chunks cover the
        // bucket contiguously, so the interning order — and with it every
        // id and dedup decision — does not depend on the chunk boundaries.
        let mut comps = bucket.iter();
        for chunk in chunks {
            let mut cursor = 0usize;
            for &(slen, zlen, shash, zhash) in &chunk.meta {
                let c = *comps.next().expect("one meta entry per component") as usize;
                let servers = &chunk.data[cursor..cursor + slen as usize];
                cursor += slen as usize;
                let zones = &chunk.data[cursor..cursor + zlen as usize];
                cursor += zlen as usize;
                component_servers[c] = Some(server_sets.intern_hashed(servers, shash));
                component_zones[c] = Some(zone_sets.intern_hashed(zones, zhash));
            }
        }
    }

    MemoResult {
        component_servers: component_servers.into_iter().map(Option::unwrap).collect(),
        component_zones: component_zones.into_iter().map(Option::unwrap).collect(),
        server_sets,
        zone_sets,
    }
}

impl DependencyIndex {
    /// The `DEPINDEX` payload this index reads from, copied out — what a
    /// snapshot archive stores for it.
    pub(crate) fn section_bytes(&self) -> Vec<u8> {
        self.section
            .to_vec()
            .expect("DEPINDEX validated at decode no longer reads (file changed on disk?)")
    }

    /// Reassembles an index from archived flat state, validating every
    /// cross-table invariant (CSR monotonicity, id bounds, set-id bounds
    /// against the interners) against the owning universe's dimensions.
    /// No graph traversal, no SCC pass — the memoized structure is taken
    /// as stored, which is safe because the caller (the snapshot loader)
    /// has already checksum-verified the bytes and this validation makes
    /// even a forged section unable to cause panics downstream.
    /// Validation **streams** every table through
    /// [`U32View::try_for_each`], so it checks every invariant without
    /// materializing a single array.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_snapshot_parts(
        universe: &Universe,
        section: Section,
        home_zone: U32View,
        zone_dep_offsets: U32View,
        zone_dep_targets: U32View,
        component_of: U32View,
        component_servers: U32View,
        component_zones: U32View,
        server_sets: SetTable,
        zone_sets: SetTable,
    ) -> Result<DependencyIndex, String> {
        let n = universe.server_count();
        let zn = universe.zone_count();
        // Streaming validators raise either a structural message or an
        // I/O-ish store error; both flatten to the String the snapshot
        // decoder wraps into its Malformed variant.
        let bounded = |arr: &U32View, bound: usize, msg: &dyn Fn(u32) -> String| {
            arr.try_for_each(|v| {
                if v as usize >= bound {
                    return Err(CheckError::Msg(msg(v)));
                }
                Ok(())
            })
            .map_err(String::from)
        };
        if home_zone.len() != n {
            return Err(format!(
                "home_zone has {} entries for {n} servers",
                home_zone.len()
            ));
        }
        home_zone
            .try_for_each(|z| {
                if z != u32::MAX && z as usize >= zn {
                    return Err(CheckError::Msg(format!(
                        "home_zone references zone {z} of {zn}"
                    )));
                }
                Ok(())
            })
            .map_err(String::from)?;
        let check_csr = |offsets: &U32View, targets: usize, what: &str| -> Result<(), String> {
            if offsets.len() != zn + 1 {
                return Err(format!(
                    "{what} offsets have {} entries for {zn} zones",
                    offsets.len()
                ));
            }
            let mut prev: Option<u32> = None;
            offsets
                .try_for_each(|v| {
                    let ok = match prev {
                        None => v == 0,
                        Some(p) => p <= v,
                    };
                    if !ok {
                        return Err(CheckError::Msg(format!(
                            "{what} offsets are not monotonic from zero"
                        )));
                    }
                    prev = Some(v);
                    Ok(())
                })
                .map_err(String::from)?;
            if prev.unwrap_or(0) as usize != targets {
                return Err(format!(
                    "{what} offsets end at {prev:?} but {targets} targets stored"
                ));
            }
            Ok(())
        };
        check_csr(&zone_dep_offsets, zone_dep_targets.len(), "dep")?;
        bounded(&zone_dep_targets, n, &|bad| {
            format!("dep row references server {bad} of {n}")
        })?;
        if component_of.len() != n {
            return Err(format!(
                "component_of has {} entries for {n} servers",
                component_of.len()
            ));
        }
        let components = component_servers.len();
        if component_zones.len() != components {
            return Err(format!(
                "component_zones has {} entries for {components} components",
                component_zones.len()
            ));
        }
        bounded(&component_of, components, &|bad| {
            format!("component_of references component {bad} of {components}")
        })?;
        if server_sets.capacity() != n {
            return Err(format!(
                "server interner capacity {} for {n} servers",
                server_sets.capacity()
            ));
        }
        if zone_sets.capacity() != zn {
            return Err(format!(
                "zone interner capacity {} for {zn} zones",
                zone_sets.capacity()
            ));
        }
        bounded(&component_servers, server_sets.len(), &|bad| {
            format!(
                "component server set {bad} of {} interned",
                server_sets.len()
            )
        })?;
        bounded(&component_zones, zone_sets.len(), &|bad| {
            format!("component zone set {bad} of {} interned", zone_sets.len())
        })?;
        Ok(DependencyIndex {
            home_zone,
            zone_dep_offsets,
            zone_dep_targets,
            component_of,
            component_servers,
            component_zones,
            server_sets,
            zone_sets,
            section,
        })
    }

    /// Builds the index. Small universes build inline; larger ones
    /// parallelize across available cores (the result is identical either
    /// way).
    pub fn build(universe: &Universe) -> DependencyIndex {
        let threads = if universe.server_count() < 4096 {
            1
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        };
        DependencyIndex::build_with_threads(universe, threads)
    }

    /// Builds the index with an explicit worker-thread count.
    ///
    /// Phase 1 derives per-**zone** dependency rows by a
    /// recurrence over the zone tree (memcpy-bound, tree-parallel by
    /// depth level — see `build_zone_rows`) and maps every server to its
    /// home zone. Phase 2 condenses the implicit per-server dependency
    /// graph into strongly connected components — serial Tarjan at one
    /// thread, adaptive trim + FW-BW otherwise
    /// ([`perils_graph::scc::parallel_scc_with`]) — and memoizes each
    /// component's reachable server/zone sets, serially bottom-up at one
    /// thread and level-parallel otherwise. Every observable (rows,
    /// closures, interning statistics) is thread-count invariant.
    pub fn build_with_threads(universe: &Universe, threads: usize) -> DependencyIndex {
        DependencyIndex::build_with_stats(universe, threads).0
    }

    /// [`DependencyIndex::build_with_threads`], also returning the wall
    /// time each build stage took — the instrumentation behind the
    /// benchmark's `index.*_ms` rows.
    pub fn build_with_stats(
        universe: &Universe,
        threads: usize,
    ) -> (DependencyIndex, IndexBuildStats) {
        let n = universe.server_count();
        let zn = universe.zone_count();
        let threads = threads.clamp(1, 16);
        let mut stats = IndexBuildStats::default();
        let t0 = std::time::Instant::now();

        // Phase 1a: per-zone CSR rows by recurrence over the zone tree
        // (memcpy-bound; see `build_zone_rows`).
        let ZoneRowTables {
            dep_offsets: zone_dep_offsets,
            dep_targets: zone_dep_targets,
        } = build_zone_rows(universe, threads);
        debug_assert_eq!(zone_dep_offsets.len(), zn + 1);
        stats.zone_rows = t0.elapsed();

        // Phase 1b: home zone per server (precomputed by the universe
        // builder; this is a plain copy).
        let home_zone: Vec<u32> = (0..n)
            .map(|i| {
                universe
                    .home_zone_of(ServerId(i as u32))
                    .map(|z| z.0)
                    .unwrap_or(u32::MAX)
            })
            .collect();

        // Phase 2: SCC + condensation over the implicit per-server graph
        // (a server's dependency row is its home zone's row — no
        // per-server edge copy is ever materialized) and per-component
        // memoization.
        let dep_row = |s: usize| -> &[ServerId] {
            let z = home_zone[s];
            if z == u32::MAX {
                return &[];
            }
            let lo = zone_dep_offsets[z as usize] as usize;
            let hi = zone_dep_offsets[z as usize + 1] as usize;
            &zone_dep_targets[lo..hi]
        };
        // Component numbering differs between the strategies (raw Tarjan
        // vs canonical FW-BW), but every downstream observable — closure
        // contents, interning statistics, survey output — is invariant
        // under SCC renumbering; both numberings are reverse topological,
        // which is all condensation and memoization require.
        let t1 = std::time::Instant::now();
        let scc = if threads == 1 {
            perils_graph::scc::tarjan_scc_with(
                n,
                |u| dep_row(u).len(),
                |u, k| dep_row(u)[k].index(),
            )
        } else {
            perils_graph::scc::parallel_scc_with(
                n,
                |u| dep_row(u).len(),
                |u, k| dep_row(u)[k].index(),
                threads,
            )
        };
        stats.scc = t1.elapsed();
        let t2 = std::time::Instant::now();
        let dag = perils_graph::csr::condense_with(
            &scc,
            |u| dep_row(u).len(),
            |u, k| dep_row(u)[k].index(),
        );
        stats.condense = t2.elapsed();

        let input = MemoInput {
            scc: &scc,
            dag: &dag,
            universe,
        };
        let t3 = std::time::Instant::now();
        let memo = if threads == 1 {
            memoize_serial(&input, n, zn)
        } else {
            memoize_levels(&input, n, zn, threads)
        };
        stats.memoize = t3.elapsed();

        // Finish through the archive decoder: write every table in the
        // `DEPINDEX` layout into a heap store — each dropped once written,
        // so no second full copy is alive — and read the store back.
        let mut bytes = Vec::new();
        snapshot::put_u32_slice(&mut bytes, &home_zone);
        drop(home_zone);
        snapshot::put_u32_slice(&mut bytes, &zone_dep_offsets);
        drop(zone_dep_offsets);
        put_ids(&mut bytes, zone_dep_targets.iter().map(|s| s.0));
        drop(zone_dep_targets);
        put_ids(&mut bytes, scc.component_of.iter().map(|&c| c as u32));
        drop((scc, dag));
        let MemoResult {
            component_servers,
            component_zones,
            server_sets,
            zone_sets,
        } = memo;
        put_ids(&mut bytes, component_servers.into_iter().map(SetId::raw));
        put_ids(&mut bytes, component_zones.into_iter().map(SetId::raw));
        server_sets.encode_into(&mut bytes);
        drop(server_sets);
        zone_sets.encode_into(&mut bytes);
        drop(zone_sets);
        let index = decode_dep_index(&Section::from_vec(bytes), universe)
            .expect("a freshly built dependency index decodes");
        (index, stats)
    }

    /// The servers that could be involved in resolving `server`'s address
    /// (its home zone's dependency row; sibling servers share one row).
    /// Yields ids in row order, decoded straight out of the index's byte
    /// store.
    pub fn deps_of(
        &self,
        server: ServerId,
    ) -> impl ExactSizeIterator<Item = ServerId> + Clone + '_ {
        let z = self.home_zone.get(server.index());
        let row = if z == u32::MAX {
            0..0
        } else {
            let offsets = &self.zone_dep_offsets;
            offsets.get(z as usize) as usize..offsets.get(z as usize + 1) as usize
        };
        self.zone_dep_targets.iter_range(row).map(ServerId)
    }

    /// Number of strongly connected components in the dependency graph.
    pub fn component_count(&self) -> usize {
        self.component_servers.len()
    }

    /// `(distinct server sets, distinct zone sets)` in the memo arenas —
    /// interning statistics for diagnostics (sibling registry servers share
    /// identical zone closures).
    pub fn memo_stats(&self) -> (usize, usize) {
        (self.server_sets.len(), self.zone_sets.len())
    }

    /// A scratch workspace sized for this index; reuse it across
    /// [`DependencyIndex::closure_view`] calls to keep the per-name cost
    /// allocation-free.
    pub fn workspace(&self) -> ClosureWorkspace {
        ClosureWorkspace {
            chain: Vec::new(),
            seen_servers: BitSet::new(self.server_sets.capacity()),
            seen_zones: BitSet::new(self.zone_sets.capacity()),
            servers: Vec::new(),
            zones: Vec::new(),
            seed_components: Vec::new(),
        }
    }

    /// Computes the dependency closure for `target` as a borrowed
    /// [`ClosureView`] — the allocation-free hot path the survey engine
    /// runs on.
    ///
    /// The view borrows `ws`, so the workspace is busy until the view is
    /// dropped; one workspace serves one name at a time.
    pub fn closure_view<'a>(
        &'a self,
        universe: &Universe,
        target: &'a DnsName,
        ws: &'a mut ClosureWorkspace,
    ) -> ClosureView<'a> {
        universe.chain_zones_into(target, &mut ws.chain);
        // Seed components: the NS sets of the target's own chain. The
        // closure of each seed server is exactly its component's memoized
        // set, so the per-name work is a small union, not a traversal.
        ws.seed_components.clear();
        for &zid in &ws.chain {
            for &ns in &universe.zone(zid).ns {
                let c = self.component_of.get(ns.index());
                if !ws.seed_components.contains(&c) {
                    ws.seed_components.push(c);
                }
            }
        }

        ws.servers.clear();
        match ws.seed_components[..] {
            [] => {}
            [c] => {
                // Single component: the closure *is* the memoized set,
                // streamed into the workspace already ascending.
                let set = SetId::from_raw(self.component_servers.get(c as usize));
                self.server_sets.for_each(set, |v| ws.servers.push(v));
            }
            _ => {
                for &c in &ws.seed_components {
                    self.server_sets.union_into(
                        SetId::from_raw(self.component_servers.get(c as usize)),
                        &mut ws.seen_servers,
                        &mut ws.servers,
                    );
                }
                ws.servers.sort_unstable();
                for &v in &ws.servers {
                    ws.seen_servers.remove(v as usize);
                }
            }
        }

        // Zones: the target's own chain plus every seed component's
        // memoized zone set (the chains of all reachable servers).
        ws.zones.clear();
        for &zid in &ws.chain {
            if ws.seen_zones.insert(zid.index()) {
                ws.zones.push(zid.0);
            }
        }
        for &c in &ws.seed_components {
            self.zone_sets.union_into(
                SetId::from_raw(self.component_zones.get(c as usize)),
                &mut ws.seen_zones,
                &mut ws.zones,
            );
        }
        ws.zones.sort_unstable();
        for &v in &ws.zones {
            ws.seen_zones.remove(v as usize);
        }

        ClosureView {
            target,
            target_chain: &ws.chain,
            servers: &ws.servers,
            zones: &ws.zones,
        }
    }

    /// The legacy per-name BFS over the dependency adjacency — the
    /// reference implementation [`DependencyIndex::closure_view`] is tested
    /// against. Returns the closure's servers and zones, ascending.
    pub fn closure_for_bfs(
        &self,
        universe: &Universe,
        target: &DnsName,
    ) -> (Vec<ServerId>, Vec<ZoneId>) {
        let target_chain = universe.chain_zones(target);
        let mut servers: BTreeSet<ServerId> = BTreeSet::new();
        let mut zones: BTreeSet<ZoneId> = target_chain.iter().copied().collect();
        let mut queue: Vec<ServerId> = Vec::new();
        for &zid in &target_chain {
            for &ns in &universe.zone(zid).ns {
                if servers.insert(ns) {
                    queue.push(ns);
                }
            }
        }
        while let Some(sid) = queue.pop() {
            zones.extend(universe.chain_zones(&universe.server(sid).name));
            for dep in self.deps_of(sid) {
                if servers.insert(dep) {
                    queue.push(dep);
                }
            }
        }
        (servers.into_iter().collect(), zones.into_iter().collect())
    }
}

/// The dependency closure of one name as **borrowed sorted slices** — no
/// per-name allocation, `Copy`, cheap to hand to every registered metric.
///
/// Produced by [`DependencyIndex::closure_view`]; borrows the caller's
/// [`ClosureWorkspace`]. Everything a view exposes is derived from the
/// target's delegation chain, so equal [`ClosureView::target_chain`]s mean
/// identical closures.
#[derive(Debug, Clone, Copy)]
pub struct ClosureView<'a> {
    target: &'a DnsName,
    target_chain: &'a [ZoneId],
    servers: &'a [u32],
    zones: &'a [u32],
}

impl<'a> ClosureView<'a> {
    /// The name this closure belongs to (as passed in; not re-lowercased —
    /// universe lookups are case-insensitive).
    pub fn target(&self) -> &'a DnsName {
        self.target
    }

    /// Zones on the target's own chain (root excluded), root-first.
    pub fn target_chain(&self) -> &'a [ZoneId] {
        self.target_chain
    }

    /// Every nameserver in the closure, ascending by id.
    pub fn servers(&self) -> impl ExactSizeIterator<Item = ServerId> + Clone + 'a {
        self.servers.iter().map(|&v| ServerId(v))
    }

    /// Every zone on any chain in the closure, ascending by id.
    pub fn zones(&self) -> impl ExactSizeIterator<Item = ZoneId> + Clone + 'a {
        self.zones.iter().map(|&v| ZoneId(v))
    }

    /// The ascending raw id lists behind [`ClosureView::servers`] and
    /// [`ClosureView::zones`]; a rank in them is a closure-local id.
    pub(crate) fn id_lists(&self) -> (&'a [u32], &'a [u32]) {
        (self.servers, self.zones)
    }

    /// Number of servers in the closure.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Number of zones in the closure.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// Membership test by binary search over the sorted server slice.
    pub fn contains_server(&self, server: ServerId) -> bool {
        self.servers.binary_search(&server.0).is_ok()
    }

    /// Membership test by binary search over the sorted zone slice.
    pub fn contains_zone(&self, zone: ZoneId) -> bool {
        self.zones.binary_search(&zone.0).is_ok()
    }

    /// TCB size (paper convention: root servers excluded).
    pub fn tcb_size(&self, universe: &Universe) -> usize {
        self.servers()
            .filter(|&s| !universe.server(s).is_root)
            .count()
    }
}

/// Extracts a self-contained sub-universe holding exactly `zones` and
/// `servers` (a closure's, as [`crate::usable::Frame::restricted`] takes
/// them), rebuilt by name through the universe builder.
///
/// A closure is NS-complete (every NS of every closure zone is a closure
/// server), so analyses over the sub-universe — reachability fixed points,
/// hijack searches — agree with the full universe while being orders of
/// magnitude smaller. Zones whose parent falls outside `zones` are treated
/// as delegated straight from the trusted hints, which matches their role
/// in the name's resolution.
///
/// Nothing on a hot path calls this: the exact hijack search solves on
/// [`crate::usable::Frame::restricted`] instead, and this stays as the
/// independent oracle the property tests check that frame against.
pub fn extract_universe(
    universe: &Universe,
    zones: impl IntoIterator<Item = ZoneId>,
    servers: impl IntoIterator<Item = ServerId>,
) -> Universe {
    let mut builder = Universe::builder();
    for sid in servers {
        let s = universe.server(sid);
        builder.raw_server(&s.name, s.vulnerable, s.is_root);
    }
    for zid in zones {
        let zone = universe.zone(zid);
        let ns_names: Vec<DnsName> = zone
            .ns
            .iter()
            .map(|&s| universe.server(s).name.clone())
            .collect();
        builder.add_zone(&zone.origin, &ns_names);
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;
    use perils_dns::name::name;
    use perils_dns::name::DnsName;

    /// The paper's Figure 1 structure in miniature:
    /// cornell → rochester → wisc → umich transitive chain.
    fn figure1_universe() -> Universe {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("edu"), &[name("a.edu-servers.net")]);
        b.add_zone(&name("net"), &[name("a.gtld-servers.net")]);
        b.add_zone(&name("edu-servers.net"), &[name("a.edu-servers.net")]);
        b.add_zone(&name("gtld-servers.net"), &[name("a.gtld-servers.net")]);
        b.add_zone(&name("cornell.edu"), &[name("cudns.cit.cornell.edu")]);
        b.add_zone(
            &name("cs.cornell.edu"),
            &[
                name("simon.cs.cornell.edu"),
                name("cayuga.cs.rochester.edu"),
            ],
        );
        b.add_zone(
            &name("rochester.edu"),
            &[name("ns1.rochester.edu"), name("simon.cs.cornell.edu")],
        );
        b.add_zone(
            &name("cs.rochester.edu"),
            &[name("cayuga.cs.rochester.edu"), name("dns.cs.wisc.edu")],
        );
        b.add_zone(
            &name("wisc.edu"),
            &[name("dns.wisc.edu"), name("dns2.itd.umich.edu")],
        );
        b.add_zone(&name("cs.wisc.edu"), &[name("dns.cs.wisc.edu")]);
        b.add_zone(&name("umich.edu"), &[name("dns.itd.umich.edu")]);
        b.finish()
    }

    /// The host names of the servers in `target`'s closure, ascending by id.
    fn server_names(u: &Universe, index: &DependencyIndex, target: &str) -> Vec<String> {
        let target = name(target);
        let mut ws = index.workspace();
        index
            .closure_view(u, &target, &mut ws)
            .servers()
            .map(|s| u.server(s).name.to_string())
            .collect()
    }

    #[test]
    fn closure_reaches_transitively() {
        let u = figure1_universe();
        let index = DependencyIndex::build(&u);
        let names = server_names(&u, &index, "www.cs.cornell.edu");
        // Direct: cs.cornell.edu and its chain.
        assert!(names.contains(&"simon.cs.cornell.edu".to_string()));
        assert!(names.contains(&"cayuga.cs.rochester.edu".to_string()));
        assert!(names.contains(&"cudns.cit.cornell.edu".to_string()));
        // Transitive: cayuga pulls rochester, which pulls wisc, which pulls
        // umich — the paper's exact example.
        assert!(names.contains(&"ns1.rochester.edu".to_string()));
        assert!(names.contains(&"dns.cs.wisc.edu".to_string()));
        assert!(names.contains(&"dns.wisc.edu".to_string()));
        assert!(names.contains(&"dns2.itd.umich.edu".to_string()));
        assert!(names.contains(&"dns.itd.umich.edu".to_string()));
    }

    #[test]
    fn tcb_excludes_root_servers() {
        let u = figure1_universe();
        let index = DependencyIndex::build(&u);
        let target = name("www.cs.cornell.edu");
        let mut ws = index.workspace();
        let closure = index.closure_view(&u, &target, &mut ws);
        let root = u.server_id(&name("a.root-servers.net")).unwrap();
        assert!(u.server(root).is_root);
        assert_eq!(
            closure.tcb_size(&u),
            closure.server_count() - usize::from(closure.contains_server(root)),
            "root servers are not counted"
        );
    }

    #[test]
    fn unrelated_name_has_small_closure() {
        let u = figure1_universe();
        let index = DependencyIndex::build(&u);
        let names = server_names(&u, &index, "www.umich.edu");
        assert!(names.contains(&"dns.itd.umich.edu".to_string()));
        assert!(names.contains(&"a.edu-servers.net".to_string()));
        assert!(
            !names.contains(&"cayuga.cs.rochester.edu".to_string()),
            "umich does not depend on rochester"
        );
    }

    #[test]
    fn closure_handles_cycles() {
        // cornell ↔ rochester mutual dependency must terminate.
        let u = figure1_universe();
        let index = DependencyIndex::build(&u);
        // Both closures are finite and contain the mutual pair.
        for target in ["www.cs.cornell.edu", "www.cs.rochester.edu"] {
            let names = server_names(&u, &index, target);
            assert!(names.contains(&"simon.cs.cornell.edu".to_string()));
            assert!(names.contains(&"cayuga.cs.rochester.edu".to_string()));
        }
    }

    #[test]
    fn memoized_closure_matches_bfs_on_cyclic_universe() {
        // The cornell ↔ rochester web collapses into one SCC; the memoized
        // union must agree with the legacy BFS set-for-set for every
        // plausible target, including names inside the cycle.
        let u = figure1_universe();
        let index = DependencyIndex::build(&u);
        let mut ws = index.workspace();
        for target in [
            "www.cs.cornell.edu",
            "www.cs.rochester.edu",
            "www.rochester.edu",
            "www.cs.wisc.edu",
            "www.umich.edu",
            "host.edu-servers.net",
            "nowhere.test",
        ] {
            let target = name(target);
            let (servers, zones) = index.closure_for_bfs(&u, &target);
            let memo = index.closure_view(&u, &target, &mut ws);
            assert!(memo.servers().eq(servers), "{target} servers");
            assert!(memo.zones().eq(zones), "{target} zones");
            assert_eq!(
                memo.target_chain(),
                u.chain_zones(&target),
                "{target} chain"
            );
        }
    }

    #[test]
    fn view_matches_bfs_and_answers_membership() {
        let u = figure1_universe();
        let index = DependencyIndex::build(&u);
        let mut ws = index.workspace();
        for target in ["www.cs.cornell.edu", "www.umich.edu", "nowhere.test"] {
            let target = name(target);
            let (servers, zones) = index.closure_for_bfs(&u, &target);
            let view = index.closure_view(&u, &target, &mut ws);
            assert_eq!(view.server_count(), servers.len(), "{target}");
            assert_eq!(view.zone_count(), zones.len(), "{target}");
            assert_eq!(
                view.tcb_size(&u),
                servers.iter().filter(|&&s| !u.server(s).is_root).count()
            );
            for sid in u.server_ids() {
                assert_eq!(
                    view.contains_server(sid),
                    servers.contains(&sid),
                    "{target} {sid:?}"
                );
            }
            for zid in u.zone_ids() {
                assert_eq!(view.contains_zone(zid), zones.contains(&zid));
            }
        }
    }

    #[test]
    fn cycle_collapses_into_one_component() {
        let u = figure1_universe();
        let index = DependencyIndex::build(&u);
        let simon = u.server_id(&name("simon.cs.cornell.edu")).unwrap();
        let cayuga = u.server_id(&name("cayuga.cs.rochester.edu")).unwrap();
        // simon serves rochester.edu (cayuga's chain) and cayuga serves
        // cs.cornell.edu (simon's chain): mutual dependency, one SCC.
        assert_eq!(
            index.component_of.get(simon.index()),
            index.component_of.get(cayuga.index())
        );
        assert!(index.component_count() < u.server_count());
        let (server_sets, zone_sets) = index.memo_stats();
        assert!(server_sets <= index.component_count());
        assert!(zone_sets <= index.component_count());
    }

    #[test]
    fn parallel_build_matches_serial() {
        let u = figure1_universe();
        let serial = DependencyIndex::build_with_threads(&u, 1);
        let parallel = DependencyIndex::build_with_threads(&u, 8);
        for sid in u.server_ids() {
            assert!(serial.deps_of(sid).eq(parallel.deps_of(sid)), "{sid:?}");
        }
        assert_eq!(serial.memo_stats(), parallel.memo_stats());
        let target = name("www.cs.cornell.edu");
        let (mut ws_a, mut ws_b) = (serial.workspace(), parallel.workspace());
        let a = serial.closure_view(&u, &target, &mut ws_a);
        let b = parallel.closure_view(&u, &target, &mut ws_b);
        assert!(a.servers().eq(b.servers()));
        assert!(a.zones().eq(b.zones()));
    }

    #[test]
    fn dep_rows_are_deduplicated() {
        // simon.cs.cornell.edu sits on two chain zones that both list
        // overlapping NS sets; its dependency row must list each server
        // once, in first-occurrence order.
        let u = figure1_universe();
        let index = DependencyIndex::build(&u);
        for sid in u.server_ids() {
            let deps: Vec<ServerId> = index.deps_of(sid).collect();
            let unique: BTreeSet<ServerId> = deps.iter().copied().collect();
            assert_eq!(unique.len(), deps.len(), "duplicate dep in row {sid:?}");
        }
    }

    #[test]
    fn zones_collected_along_chains() {
        let u = figure1_universe();
        let index = DependencyIndex::build(&u);
        let target = name("www.cs.cornell.edu");
        let mut ws = index.workspace();
        let zone_names: Vec<String> = index
            .closure_view(&u, &target, &mut ws)
            .zones()
            .map(|z| u.zone(z).origin.to_string())
            .collect();
        for expected in [
            "edu",
            "cornell.edu",
            "cs.cornell.edu",
            "rochester.edu",
            "wisc.edu",
            "umich.edu",
            "net",
        ] {
            assert!(
                zone_names.contains(&expected.to_string()),
                "missing {expected}: {zone_names:?}"
            );
        }
    }

    #[test]
    fn target_chain_root_first() {
        let u = figure1_universe();
        let index = DependencyIndex::build(&u);
        let target = name("www.cs.cornell.edu");
        let mut ws = index.workspace();
        let chain: Vec<String> = index
            .closure_view(&u, &target, &mut ws)
            .target_chain()
            .iter()
            .map(|&z| u.zone(z).origin.to_string())
            .collect();
        assert_eq!(chain, vec!["edu", "cornell.edu", "cs.cornell.edu"]);
    }
}
