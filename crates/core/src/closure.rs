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
//! * the build derives dependency rows **per zone** (a server's row is its
//!   home zone's row; sibling nameservers share) by recurrence over the
//!   zone tree — each row is a memcpy of its parent zone's row plus the
//!   zone's own NS set, with no name hashing on the hot path (see
//!   `ZoneRows::build`). The rows are build scratch: the SCC pass and the
//!   condensation read them, and they are dropped before memoization, so
//!   no index stores them. Chains are not stored either: a server's chain
//!   is read off the universe's parent links
//!   ([`Universe::server_chain_up`]);
//! * the implicit server→server dependency graph is split into strongly
//!   connected components by [`perils_graph::scc::tarjan_scc_with`]
//!   without materializing per-server edges (delegation webs are cyclic —
//!   cornell ↔ rochester in Figure 1), and every component's reachable
//!   server/zone set is memoized once as an interned set
//!   ([`perils_graph::bitset::BitSetInterner`]): a sorted run in one
//!   shared arena, with set `i` at `arena[offsets[i]..offsets[i + 1]]`.
//!   Each component's successors are read straight off its members'
//!   rows, and memoization is one pass in Tarjan's component order: the
//!   numbering is reverse topological, so every successor is interned
//!   before the component that needs it. A component with at most
//!   `MERGE_MAX_FANOUT` successors folds their runs by sorted merge;
//!   a wider one unions them through a scratch bitset. The build is
//!   serial and takes no thread count, so the index bytes are a pure
//!   function of the universe;
//! * the build finishes through the archive decoder: its tables are
//!   written in the `DEPINDEX` layout (seven length-prefixed `u32`
//!   arrays) into a heap byte store and decoded back
//!   ([`crate::snapshot::decode_dep_index`]), so a built index and one
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
//! metrics, lint, the attack simulation, the hijack searches
//! — reads one, and a caller that needs the closure past the workspace's
//! next use collects the iterators it needs. The tests check views
//! against the dev-only `perils-oracle` crate's per-name BFS, which reads
//! each server's dependencies off the universe's chains and NS sets, not
//! off the index, and its closure pushed back through the universe
//! builder by name.
//!
//! A closure is a pure function of the target's delegation chain: the view
//! derives everything from [`ClosureView::target_chain`], so two names with
//! one deepest zone (`www.example.com` and `mail.example.com`) have
//! identical closures — the invariant the survey engine relies on when it
//! opens one closure per deepest zone and measures every metric there
//! once.

use crate::snapshot::{decode_dep_index, put_ids};
use crate::universe::{ServerId, Universe, ZoneId};
use perils_dns::name::DnsName;
use perils_graph::bitset::{BitSet, BitSetInterner, SetId, SetTable};
use perils_graph::scc::SccResult;
use perils_util::snapshot::{Section, SnapshotError};
use perils_util::U32View;
use std::borrow::Cow;

/// Precomputed dependency structure over a universe.
///
/// A server's delegation chain — and with it its dependency row — is a
/// function of its **home zone** (the deepest zone enclosing its name):
/// every ancestor zone of the server's name is an ancestor zone of that
/// origin. The build therefore derives dependency rows once per *zone*
/// and reads each server's home zone off the universe
/// ([`Universe::home_zone_of`]): sibling nameservers (`ns1`/`ns2`/`ns3`
/// of one domain) share one row, and the SCC pass runs over the implicit
/// per-server graph without materializing a per-server edge copy. The
/// index keeps only what the closure reads: the component map and each
/// component's memoized sets. A server's chain is its home zone and that
/// zone's parent links ([`Universe::server_chain_up`]), which the
/// memoization and the min-cut walk read off the universe.
/// Every flat table is a [`U32View`] into the `DEPINDEX` section it was
/// decoded from — a fresh build's heap store or a loaded archive's.
#[derive(Debug, Clone)]
pub struct DependencyIndex {
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
/// snapshot archive. Two indexes built from equal universes compare equal
/// (the build is serial and deterministic); an
/// index reconstituted from an archive compares equal to the one that
/// wrote it.
impl PartialEq for DependencyIndex {
    fn eq(&self, other: &DependencyIndex) -> bool {
        self.payload() == other.payload()
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
/// pass, the condensation and the per-component memoization.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexBuildStats {
    /// Phase 1: dependency rows by recurrence over the zone tree.
    pub zone_rows: std::time::Duration,
    /// Phase 2: strongly connected components of the dependency graph.
    pub scc: std::time::Duration,
    /// Phase 2: each component's successor components, read off its
    /// members' rows.
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

/// Phase-1 output: every zone's dependency row, as a CSR in zone-id order
/// — the servers an address resolution under the zone could involve (the
/// NS sets of every non-root chain zone, deduplicated in first-occurrence
/// order). Build scratch only: phase 2 reads it and drops it.
struct ZoneRows {
    offsets: Vec<u32>,
    targets: Vec<ServerId>,
}

impl ZoneRows {
    /// Computes every zone's dependency row **by recurrence over the zone
    /// tree**: `dep(z) = dep(parent(z)) ++ (NS(z) not already present)` —
    /// the parent zone ([`Universe::parent_zone_of`], precomputed at
    /// universe build) is the deepest zone strictly enclosing `z`'s
    /// origin, so its row covers exactly `z`'s proper enclosing zones.
    /// Processing zones shallowest-first makes each row one copy of its
    /// parent's row plus a stamp-deduplicated append of the zone's own NS
    /// set: no name hashing, no chain re-scans, and every probe O(1) — the
    /// whole pass is linear in the total row length. The rows are then
    /// laid out in zone-id order, the order the SCC pass reads them in.
    fn build(universe: &Universe) -> ZoneRows {
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
        let mut cursor = vec![0u32; depth_count.len()];
        for d in 1..depth_count.len() {
            cursor[d] = cursor[d - 1] + depth_count[d - 1];
        }
        let mut order = vec![0u32; zn];
        for (z, &d) in depths.iter().enumerate() {
            order[cursor[d as usize] as usize] = z as u32;
            cursor[d as usize] += 1;
        }

        // Rows in processing order, as `(offset, len)` per zone id.
        // `stamps[s] == z` ⇔ server `s` is already on zone `z`'s row
        // (epoch-per-zone linear dedup).
        let mut stamps = vec![u32::MAX; universe.server_count()];
        let mut dep: Vec<ServerId> = Vec::new();
        let mut pos: Vec<(u32, u32)> = vec![(0, 0); zn];
        for &z in &order {
            let start = dep.len();
            if let Some(p) = universe.parent_zone_of(ZoneId(z)) {
                let (o, l) = pos[p.index()];
                dep.extend_from_within(o as usize..(o + l) as usize);
            }
            let zone = universe.zone(ZoneId(z));
            if !zone.origin.is_root() {
                for &sid in &dep[start..] {
                    stamps[sid.index()] = z;
                }
                for &ns in &zone.ns {
                    if stamps[ns.index()] != z {
                        stamps[ns.index()] = z;
                        dep.push(ns);
                    }
                }
            }
            let end = u32::try_from(dep.len()).expect("zone row tables fit u32");
            pos[z as usize] = (start as u32, end - start as u32);
        }

        let mut rows = ZoneRows {
            offsets: Vec::with_capacity(zn + 1),
            targets: Vec::with_capacity(dep.len()),
        };
        rows.offsets.push(0);
        for &(o, l) in &pos {
            rows.targets
                .extend_from_slice(&dep[o as usize..(o + l) as usize]);
            rows.offsets.push(rows.targets.len() as u32);
        }
        rows
    }

    /// Zone `z`'s dependency row.
    fn row(&self, z: usize) -> &[ServerId] {
        &self.targets[self.offsets[z] as usize..self.offsets[z + 1] as usize]
    }
}

/// The memoization phase's output: one interned server set and one
/// interned zone set per strongly connected component.
struct MemoResult {
    component_servers: Vec<SetId>,
    component_zones: Vec<SetId>,
    server_sets: BitSetInterner,
    zone_sets: BitSetInterner,
}

/// Scratch of the memoization phase.
struct MemoScratch {
    seen_servers: BitSet,
    seen_zones: BitSet,
    out_servers: Vec<u32>,
    out_zones: Vec<u32>,
    tmp: Vec<u32>,
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

/// Above this successor fan-out the bitset union path wins over
/// repeated sorted merges (each merge re-traverses the accumulated set).
const MERGE_MAX_FANOUT: usize = 4;

impl MemoResult {
    /// Computes the reachable server/zone sets of the component made of
    /// `members` into `scratch` (sorted, deduplicated; scratch bitsets are
    /// left clean). Every component in `successors` is already memoized.
    /// A member's zones are its chain, read off the universe's parent
    /// links ([`Universe::server_chain_up`]).
    fn component_sets(
        &self,
        universe: &Universe,
        members: &[u32],
        successors: &[u32],
        scratch: &mut MemoScratch,
    ) {
        let sets = |d: u32| {
            let d = d as usize;
            (self.component_servers[d], self.component_zones[d])
        };

        // Merge fast path: the typical component has one or two successor
        // sets, so a fold of sorted merges beats the bitset bookkeeping
        // plus a full sort. (Components partition the server set, so
        // members are disjoint from every successor's servers; successors
        // may still overlap each other, which merge dedups.)
        if successors.len() <= MERGE_MAX_FANOUT {
            scratch.out_servers.clear();
            scratch.out_servers.extend_from_slice(members);
            scratch.out_servers.sort_unstable();
            scratch.out_zones.clear();
            for &member in members {
                scratch
                    .out_zones
                    .extend(universe.server_chain_up(ServerId(member)).map(|zid| zid.0));
            }
            scratch.out_zones.sort_unstable();
            scratch.out_zones.dedup();
            for &d in successors {
                let (sv, zv) = sets(d);
                let set = self.server_sets.as_sorted_slice(sv);
                union_merge(&scratch.out_servers, set, &mut scratch.tmp);
                std::mem::swap(&mut scratch.out_servers, &mut scratch.tmp);
                let set = self.zone_sets.as_sorted_slice(zv);
                union_merge(&scratch.out_zones, set, &mut scratch.tmp);
                std::mem::swap(&mut scratch.out_zones, &mut scratch.tmp);
            }
            return;
        }

        // Bitset path: wide fan-out.
        scratch.out_servers.clear();
        scratch.out_zones.clear();
        for &member in members {
            let s = member as usize;
            if scratch.seen_servers.insert(s) {
                scratch.out_servers.push(s as u32);
            }
            for zid in universe.server_chain_up(ServerId(s as u32)) {
                if scratch.seen_zones.insert(zid.index()) {
                    scratch.out_zones.push(zid.0);
                }
            }
        }
        for &d in successors {
            let (sv, zv) = sets(d);
            self.server_sets
                .union_into(sv, &mut scratch.seen_servers, &mut scratch.out_servers);
            self.zone_sets
                .union_into(zv, &mut scratch.seen_zones, &mut scratch.out_zones);
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

/// The condensation's edges, in CSR form: component `c`'s successor
/// components are `targets[offsets[c]..offsets[c + 1]]`.
struct Condensed {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

/// Condenses the implicit per-server graph: each component's successors
/// are read straight off its members' dependency rows (`dep_row`) and
/// deduplicated with a stamp array, self-edges dropped.
fn condense<'r>(scc: &SccResult, dep_row: impl Fn(usize) -> &'r [ServerId]) -> Condensed {
    let mut out = Condensed {
        offsets: Vec::with_capacity(scc.count() + 1),
        targets: Vec::new(),
    };
    out.offsets.push(0);
    // `stamps[d] == c` ⇔ component `d` is already among `c`'s successors.
    let mut stamps = vec![u32::MAX; scc.count()];
    for (c, members) in (0u32..).zip(&scc.components) {
        for &member in members {
            for s in dep_row(member as usize) {
                let d = scc.component_of[s.index()] as u32;
                if d != c && stamps[d as usize] != c {
                    debug_assert!(d < c, "Tarjan numbers components reverse topologically");
                    stamps[d as usize] = c;
                    out.targets.push(d);
                }
            }
        }
        let end = u32::try_from(out.targets.len()).expect("condensed edges fit u32");
        out.offsets.push(end);
    }
    out
}

/// Memoizes every component's reachable server/zone sets in one pass over
/// the components in Tarjan order. Tarjan numbers components reverse
/// topologically, so each of component `c`'s successors is already
/// interned when `c` is reached. Sets are interned in component order,
/// which fixes every set id.
fn memoize(universe: &Universe, scc: &SccResult, condensed: &Condensed) -> MemoResult {
    let (n, zn) = (universe.server_count(), universe.zone_count());
    let mut memo = MemoResult {
        component_servers: Vec::with_capacity(scc.count()),
        component_zones: Vec::with_capacity(scc.count()),
        server_sets: BitSetInterner::new(n),
        zone_sets: BitSetInterner::new(zn),
    };
    let mut scratch = MemoScratch {
        seen_servers: BitSet::new(n),
        seen_zones: BitSet::new(zn),
        out_servers: Vec::new(),
        out_zones: Vec::new(),
        tmp: Vec::new(),
    };
    for (c, members) in scc.components.iter().enumerate() {
        let successors =
            &condensed.targets[condensed.offsets[c] as usize..condensed.offsets[c + 1] as usize];
        memo.component_sets(universe, members, successors, &mut scratch);
        let servers = memo.server_sets.intern(&scratch.out_servers);
        let zones = memo.zone_sets.intern(&scratch.out_zones);
        memo.component_servers.push(servers);
        memo.component_zones.push(zones);
    }
    memo
}

impl DependencyIndex {
    /// The `DEPINDEX` payload this index reads from — what a snapshot
    /// archive stores for it. Borrowed from a heap-backed index (every
    /// built one), so an archive writer appends it with no copy between.
    pub(crate) fn payload(&self) -> Cow<'_, [u8]> {
        self.section
            .bytes()
            .expect("DEPINDEX validated at decode no longer reads (file changed on disk?)")
    }

    /// Reassembles an index from archived flat state, validating every
    /// cross-table invariant (table lengths, id bounds, set-id bounds
    /// against the interners) against the owning universe's dimensions.
    /// No graph traversal, no SCC pass — the memoized structure is taken
    /// as stored, which is safe because the caller (the snapshot loader)
    /// has already checksum-verified the bytes and this validation makes
    /// even a forged section unable to cause panics downstream.
    /// Validation **streams** every table through
    /// [`U32View::try_for_each`], so it checks every invariant without
    /// materializing a single array.
    pub(crate) fn from_snapshot_parts(
        universe: &Universe,
        section: Section,
        component_of: U32View,
        component_servers: U32View,
        component_zones: U32View,
        server_sets: SetTable,
        zone_sets: SetTable,
    ) -> Result<DependencyIndex, String> {
        let n = universe.server_count();
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
            component_of,
            component_servers,
            component_zones,
            server_sets,
            zone_sets,
            section,
        })
    }

    /// Builds the index in one serial pass.
    ///
    /// Phase 1 derives per-**zone** dependency rows by a recurrence over
    /// the zone tree (see `ZoneRows::build`); a server's row is its home
    /// zone's, and the rows are dropped once the condensation has read
    /// them. Phase 2 splits the implicit per-server dependency graph
    /// into strongly connected components with Tarjan
    /// ([`perils_graph::scc::tarjan_scc_with`]), lists each component's
    /// successor components, and memoizes each component's reachable
    /// server/zone sets in Tarjan order. No thread count or machine
    /// property reaches the build: the `DEPINDEX` bytes — and with them
    /// every observable — are a pure function of the universe.
    pub fn build(universe: &Universe) -> DependencyIndex {
        DependencyIndex::build_with_stats(universe, 1).0
    }

    /// [`DependencyIndex::build`], also returning the wall time each build
    /// stage took — the instrumentation behind the benchmark's
    /// `index.*_ms` rows. `_threads` is ignored: the build is serial, and
    /// the parameter stays only for the benchmark harness, which passes
    /// its worker count.
    pub fn build_with_stats(
        universe: &Universe,
        _threads: usize,
    ) -> (DependencyIndex, IndexBuildStats) {
        let n = universe.server_count();
        let mut stats = IndexBuildStats::default();
        let t0 = std::time::Instant::now();

        // Phase 1: per-zone rows by recurrence over the zone tree
        // (memcpy-bound; see `ZoneRows::build`).
        let zone_rows = ZoneRows::build(universe);
        stats.zone_rows = t0.elapsed();

        // Phase 2: SCC over the implicit per-server graph (a server's
        // dependency row is its home zone's row — no per-server edge copy
        // is ever materialized), the condensation's edges, then
        // per-component memoization.
        let dep_row = |s: usize| match universe.home_zone_of(ServerId(s as u32)) {
            None => &[],
            Some(z) => zone_rows.row(z.index()),
        };
        let t1 = std::time::Instant::now();
        let scc = perils_graph::scc::tarjan_scc_with(
            n,
            |u| dep_row(u).len(),
            |u, k| dep_row(u)[k].index(),
        );
        stats.scc = t1.elapsed();
        let t2 = std::time::Instant::now();
        let condensed = condense(&scc, dep_row);
        stats.condense = t2.elapsed();
        drop(zone_rows);
        let t3 = std::time::Instant::now();
        let memo = memoize(universe, &scc, &condensed);
        stats.memoize = t3.elapsed();
        drop(condensed);

        // Finish through the archive decoder: write every table in the
        // `DEPINDEX` layout into a heap store — each dropped once written,
        // so no second full copy is alive — and read the store back.
        let mut bytes = Vec::new();
        put_ids(&mut bytes, scc.component_of.iter().map(|&c| c as u32));
        drop(scc);
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

    /// Number of strongly connected components in the dependency graph.
    pub fn component_count(&self) -> usize {
        self.component_servers.len()
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
        self.closure_view_in(universe, target, universe.zone_of(target), ws)
    }

    /// [`DependencyIndex::closure_view`] for a target whose deepest zone
    /// the caller already holds (`zone == universe.zone_of(target)`): the
    /// chain is read off the universe's parent links, so the view costs
    /// no origin lookups. The survey engine keys every name by that zone
    /// and opens one view per distinct key.
    pub fn closure_view_in<'a>(
        &'a self,
        universe: &Universe,
        target: &'a DnsName,
        zone: Option<ZoneId>,
        ws: &'a mut ClosureWorkspace,
    ) -> ClosureView<'a> {
        debug_assert_eq!(zone, universe.zone_of(target), "{target}");
        ws.chain.clear();
        ws.chain.extend(universe.chain_up(zone));
        ws.chain.reverse();
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

    /// TCB size (paper convention: root servers excluded).
    pub fn tcb_size(&self, universe: &Universe) -> usize {
        self.servers()
            .filter(|&s| !universe.server(s).is_root)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;
    use perils_dns::name::name;
    use perils_dns::name::DnsName;
    use std::collections::BTreeSet;

    /// The paper's Figure 1 web: cornell → rochester → wisc → umich, with
    /// cornell ↔ rochester mutual secondaries.
    fn figure1_universe() -> Universe {
        let scenario = perils_authserver::scenarios::cornell_figure1();
        let db = perils_vulndb::VulnDb::isc_feb_2004();
        let mut builder = Universe::builder();
        for event in crate::registry_events(&scenario.registry, |_| None) {
            builder.apply(event, &db);
        }
        builder.finish()
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
        assert!(index.server_sets.len() <= index.component_count());
        assert!(index.zone_sets.len() <= index.component_count());
    }

    #[test]
    fn rebuild_is_byte_identical() {
        let u = figure1_universe();
        let first = DependencyIndex::build(&u);
        let second = DependencyIndex::build(&u);
        // The build has no thread, machine or hash-order input: the
        // `DEPINDEX` bytes match, and so does everything read off them.
        assert_eq!(first, second);
        let target = name("www.cs.cornell.edu");
        let (mut ws_a, mut ws_b) = (first.workspace(), second.workspace());
        let a = first.closure_view(&u, &target, &mut ws_a);
        let b = second.closure_view(&u, &target, &mut ws_b);
        assert!(a.servers().eq(b.servers()));
        assert!(a.zones().eq(b.zones()));
    }

    /// A seeded delegation web: second-level zones under a few TLDs, each
    /// served by one to three hosts named inside random other zones, so
    /// cross-zone cycles and multi-level dependency chains both occur.
    fn seeded_universe(seed: u64) -> Universe {
        let mut rng = perils_util::rng::Rng::new(seed);
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        let tlds = ["com", "net", "org", "edu"];
        for tld in tlds {
            b.add_zone(&name(tld), &[name(&format!("{tld}.gtld-servers.net"))]);
        }
        let domains: Vec<String> = (0..60)
            .map(|i| format!("d{i}.{}", tlds[rng.below_usize(tlds.len())]))
            .collect();
        for domain in &domains {
            let ns: Vec<DnsName> = (0..1 + rng.below_usize(3))
                .map(|k| {
                    let host = &domains[rng.below_usize(domains.len())];
                    name(&format!("ns{k}.{host}"))
                })
                .collect();
            b.add_zone(&name(domain), &ns);
        }
        b.finish()
    }

    /// Asserts that reading `ids` in order introduces each value in
    /// increasing order: the first occurrence of id `k` comes after the
    /// first occurrences of ids `0..k`, and all `distinct` ids occur.
    fn assert_first_occurrence_order(ids: &U32View, distinct: usize, what: &str) {
        let mut next = 0u32;
        for (c, id) in ids.iter().enumerate() {
            assert!(
                id <= next,
                "{what}: component {c} introduces set {id} before set {next}"
            );
            if id == next {
                next += 1;
            }
        }
        assert_eq!(
            next as usize, distinct,
            "{what}: every interned set is used"
        );
    }

    #[test]
    fn sets_are_interned_in_tarjan_component_order() {
        let worlds = [
            ("figure 1", figure1_universe()),
            ("seed 11", seeded_universe(11)),
            ("seed 29", seeded_universe(29)),
            ("seed 20040722", seeded_universe(20040722)),
        ];
        for (what, u) in &worlds {
            let index = DependencyIndex::build(u);
            assert_first_occurrence_order(&index.component_servers, index.server_sets.len(), what);
            assert_first_occurrence_order(&index.component_zones, index.zone_sets.len(), what);
        }
    }

    #[test]
    fn condensation_lists_each_successor_once_and_drops_self_edges() {
        for u in [figure1_universe(), seeded_universe(29)] {
            let rows = ZoneRows::build(&u);
            let dep_row = |s: usize| match u.home_zone_of(ServerId(s as u32)) {
                Some(z) => rows.row(z.index()),
                None => &[],
            };
            let scc = perils_graph::scc::tarjan_scc_with(
                u.server_count(),
                |s| dep_row(s).len(),
                |s, k| dep_row(s)[k].index(),
            );
            let condensed = condense(&scc, dep_row);
            assert_eq!(condensed.offsets.len(), scc.count() + 1);
            for (c, members) in scc.components.iter().enumerate() {
                let listed = &condensed.targets
                    [condensed.offsets[c] as usize..condensed.offsets[c + 1] as usize];
                let unique: BTreeSet<u32> = listed.iter().copied().collect();
                assert_eq!(
                    unique.len(),
                    listed.len(),
                    "component {c} lists a duplicate"
                );
                // Exactly the other components its members' rows reach,
                // every one numbered lower (Tarjan is reverse topological).
                let expected: BTreeSet<u32> = members
                    .iter()
                    .flat_map(|&m| dep_row(m as usize))
                    .map(|s| scc.component_of[s.index()] as u32)
                    .filter(|&d| d as usize != c)
                    .collect();
                assert_eq!(unique, expected, "component {c}");
                assert!(listed.iter().all(|&d| (d as usize) < c));
            }
        }
    }

    #[test]
    fn dep_rows_are_deduplicated() {
        // simon.cs.cornell.edu sits on two chain zones that both list
        // overlapping NS sets; each zone's dependency row must list each
        // server once, and hold exactly the NS sets of the zone's chain.
        for u in [figure1_universe(), seeded_universe(29)] {
            let rows = ZoneRows::build(&u);
            assert_eq!(rows.offsets.len(), u.zone_count() + 1);
            for zid in u.zone_ids() {
                let row = rows.row(zid.index());
                let unique: BTreeSet<ServerId> = row.iter().copied().collect();
                assert_eq!(unique.len(), row.len(), "duplicate dep in row {zid:?}");
                let chain_ns: BTreeSet<ServerId> = u
                    .chain_zones(&u.zone(zid).origin)
                    .into_iter()
                    .flat_map(|z| u.zone(z).ns.iter().copied())
                    .collect();
                assert_eq!(unique, chain_ns, "row of {}", u.zone(zid).origin);
            }
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
