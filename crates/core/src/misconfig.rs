//! Configuration-error auditing.
//!
//! The paper's related work (Pappas et al., SIGCOMM 2004, "Impact of
//! Configuration Errors on DNS Robustness") catalogues the operational
//! errors that amplify the transitive-trust risks this library measures.
//! This module audits a [`Universe`] for them:
//!
//! * **single-homed zones** — one NS, or all NS on one operator's boxes
//!   ("diminished server redundancy");
//! * **unresolvable NS** — a delegation names a host no modeled zone can
//!   supply an address for (lame-delegation precursor);
//! * **glueless cycles** — zones whose NS sets mutually require each
//!   other with no glue to bootstrap (unresolvable by construction);
//! * **deep dependency chains** — names whose server-address resolution
//!   nests more than a threshold of levels (each level is another place
//!   to be hijacked, and another RTT).

use crate::metric::{columns, ColumnKind, Measure, NameMetric};
use crate::universe::{ServerId, Universe, ZoneId};
use crate::zombie::server_is_dead;
use perils_dns::name::{DnsName, Label};

/// The registered operator domain of a server name: its last two labels
/// (`ns1.dns7.net` → `dns7.net`), borrowed.
pub(crate) fn operator_labels(name: &DnsName) -> &[Label] {
    let labels = name.labels();
    &labels[labels.len().saturating_sub(2)..]
}

/// The shared operator domain when all of the zone's (two or more)
/// nameservers sit under one registered parent.
///
/// The operators are compared in place (labels compare
/// case-insensitively); only the returned domain is allocated, spelled as
/// the first NS spells it.
pub fn single_operator(universe: &Universe, zone: ZoneId) -> Option<DnsName> {
    let zone = universe.zone(zone);
    let (&first, rest) = zone.ns.split_first()?;
    if rest.is_empty() {
        return None;
    }
    let first = &universe.server(first).name;
    let operator = operator_labels(first);
    rest.iter()
        .all(|&s| operator_labels(&universe.server(s).name) == operator)
        .then(|| first.suffix(2))
}

/// The zone's NS hosts with no address anywhere in the modeled universe
/// (lame-delegation precursors): the dead servers of
/// [`crate::ZombieIndex`] among its NS set.
pub fn unresolvable_ns(universe: &Universe, zone: ZoneId) -> Vec<ServerId> {
    universe
        .zone(zone)
        .ns
        .iter()
        .copied()
        .filter(|&sid| server_is_dead(universe, sid))
        .collect()
}

/// The exhaustive oracle [`DepthIndex`] is tested against: how many
/// levels of "resolve a server name to resolve a server name…" a name's
/// chain can force, by enumerating simple paths — exact, but exponential
/// on dense mutual-secondary webs.
#[cfg(test)]
fn dependency_depth(universe: &Universe, name: &DnsName) -> usize {
    use std::collections::BTreeSet;

    fn depth_of_server(
        universe: &Universe,
        server: ServerId,
        seen: &mut BTreeSet<ServerId>,
    ) -> usize {
        if !seen.insert(server) {
            return 0; // cycle: glue or failure, either way no deeper
        }
        let entry = universe.server(server);
        if entry.is_root {
            return 0;
        }
        let mut worst = 0usize;
        for &zid in &universe.chain_zones(&entry.name) {
            let zone = universe.zone(zid);
            // Glued servers cost nothing extra.
            let glueless: Vec<ServerId> = zone
                .ns
                .iter()
                .copied()
                .filter(|&s| {
                    !universe.server(s).is_root
                        && !universe.server(s).name.is_subdomain_of(&zone.origin)
                })
                .collect();
            for s in glueless {
                worst = worst.max(1 + depth_of_server(universe, s, seen));
            }
        }
        seen.remove(&server);
        worst
    }

    let mut worst = 0usize;
    for &zid in &universe.chain_zones(name) {
        let zone = universe.zone(zid);
        for &sid in &zone.ns {
            let server = universe.server(sid);
            if server.is_root || server.name.is_subdomain_of(&zone.origin) {
                continue;
            }
            let mut seen = BTreeSet::new();
            worst = worst.max(1 + depth_of_server(universe, sid, &mut seen));
        }
    }
    worst
}

/// The glueless-dependency adjacency behind [`DepthIndex`], stored per
/// home zone: server `s` has an edge to `g` when resolving `s`'s address
/// can force a glueless sub-resolution of `g` (`g` serves a zone on `s`'s
/// chain out of bailiwick). That set depends only on `s`'s home zone, so
/// every server homed in one zone shares one list, in chain order
/// (root-first, then each zone's NS order, first occurrence kept).
struct GluelessEdges {
    /// Per server: its list's index (list 0 is empty: root servers and
    /// servers whose chain is empty).
    list_of: Vec<u32>,
    /// List `l` is `targets[offsets[l]..offsets[l + 1]]`.
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl GluelessEdges {
    /// Builds the lists by recurrence over the zone tree:
    /// `E(z) = E(parent) ++ (G(z) \ E(parent))`, where `G(z)` is `z`'s own
    /// glueless NS. That is the root-first chain walk, first occurrence
    /// kept, with each zone's NS set filtered once rather than once per
    /// zone below it. Ancestors that home no server get a list too.
    fn build(universe: &Universe) -> GluelessEdges {
        let mut list_of = vec![0u32; universe.server_count()];
        let mut list_of_zone = vec![u32::MAX; universe.zone_count()];
        let mut offsets = vec![0u32, 0];
        let mut targets: Vec<u32> = Vec::new();
        // Per server: the last list that took it, so each list dedups in
        // O(1) per candidate.
        let mut taken_by = vec![u32::MAX; universe.server_count()];
        let mut pending = Vec::new();
        for sid in universe.server_ids() {
            if universe.server(sid).is_root {
                continue;
            }
            // Climb to the deepest ancestor that has a list, then build
            // the missing lists top-down.
            pending.clear();
            let mut base = 0u32;
            for zid in universe.server_chain_up(sid) {
                match list_of_zone[zid.index()] {
                    u32::MAX => pending.push(zid),
                    list => {
                        base = list;
                        break;
                    }
                }
            }
            for &zid in pending.iter().rev() {
                let list = (offsets.len() - 1) as u32;
                for k in offsets[base as usize]..offsets[base as usize + 1] {
                    let target = targets[k as usize];
                    taken_by[target as usize] = list;
                    targets.push(target);
                }
                let zone = universe.zone(zid);
                for &dep in &zone.ns {
                    let dep_server = universe.server(dep);
                    if taken_by[dep.index()] != list
                        && !dep_server.is_root
                        && !dep_server.name.is_subdomain_of(&zone.origin)
                    {
                        taken_by[dep.index()] = list;
                        targets.push(dep.0);
                    }
                }
                offsets.push(targets.len() as u32);
                list_of_zone[zid.index()] = list;
                base = list;
            }
            list_of[sid.index()] = base;
        }
        GluelessEdges {
            list_of,
            offsets,
            targets,
        }
    }

    /// The glueless targets of server `u`, in insertion order.
    fn of(&self, u: usize) -> &[u32] {
        let l = self.list_of[u] as usize;
        &self.targets[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }
}

/// Precomputed glueless-nesting depths for every server in a universe.
///
/// Enumerating simple paths is exact but explodes on the dense
/// mutual-secondary webs real (and synthetic) topologies contain. This
/// index computes the same quantity **cycle-collapsed** — longest path
/// over the strongly connected components of the glueless-dependency
/// graph, linear in servers + edges — which agrees with the exhaustive
/// search on acyclic webs and treats a mutual-secondary cycle as a single
/// nesting level.
/// The survey metric uses this.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthIndex {
    depth: Vec<usize>,
    /// Multi-member SCCs of the glueless graph — the mutual-secondary
    /// cycles — each member list ascending by server id.
    cycles: Vec<Vec<ServerId>>,
    /// Per server: its index into `cycles`, or `u32::MAX` when it is on
    /// none. Derived from `cycles`, never stored.
    cycle_id: Vec<u32>,
}

impl DepthIndex {
    /// Assembles the index from per-server depths and the cycle lists,
    /// deriving each server's cycle id. Rejects a member id out of range
    /// and a server listed in two cycles (Tarjan's components are
    /// disjoint, so only a corrupt archive has one).
    fn with_cycles(depth: Vec<usize>, cycles: Vec<Vec<ServerId>>) -> Result<DepthIndex, String> {
        let n = depth.len();
        let mut cycle_id = vec![u32::MAX; n];
        for (i, cycle) in cycles.iter().enumerate() {
            for member in cycle {
                let slot = cycle_id
                    .get_mut(member.index())
                    .ok_or_else(|| format!("cycle references server {} of {n}", member.0))?;
                if *slot != u32::MAX {
                    return Err(format!(
                        "server {} sits on cycles {} and {i}",
                        member.0, *slot
                    ));
                }
                *slot = i as u32;
            }
        }
        Ok(DepthIndex {
            depth,
            cycles,
            cycle_id,
        })
    }

    /// Borrows the flat state a snapshot archive persists: the depths and
    /// the cycle lists.
    pub(crate) fn snapshot_parts(&self) -> (&[usize], &[Vec<ServerId>]) {
        (&self.depth, &self.cycles)
    }

    /// Reassembles the index from archived flat state, validating every
    /// id so corrupt archives cannot cause out-of-bounds lookups later,
    /// and every depth: a path through the glueless components visits
    /// each at most once, so a built depth stays below the server count
    /// (the bound lint findings' counts rely on).
    pub(crate) fn from_snapshot_parts(
        server_count: usize,
        depth: Vec<usize>,
        cycles: Vec<Vec<ServerId>>,
    ) -> Result<DepthIndex, String> {
        if depth.len() != server_count {
            return Err(format!(
                "depth has {} entries for {server_count} servers",
                depth.len()
            ));
        }
        if let Some(&deepest) = depth.iter().find(|&&d| d >= server_count) {
            return Err(format!(
                "glueless depth {deepest} for {server_count} servers"
            ));
        }
        DepthIndex::with_cycles(depth, cycles)
    }

    /// Builds the index without materializing a server graph, in time
    /// linear in the zones' NS sets, the per-zone edge lists and the
    /// edges Tarjan walks.
    ///
    /// A server's glueless edges depend only on its home zone, so the
    /// build computes one deduplicated target list per home zone and runs
    /// Tarjan over that implicit adjacency.
    /// Tarjan emits components in reverse topological order, so the
    /// longest paths take one pass over the components in emission order,
    /// reading each member's list: every out-of-component target already
    /// has its final depth. No graph, condensation DAG or edge set is
    /// allocated; the peak is the Tarjan state plus the lists.
    pub fn build(universe: &Universe) -> DepthIndex {
        let n = universe.server_count();
        let edges = GluelessEdges::build(universe);
        let scc = perils_graph::scc::tarjan_scc_with(
            n,
            |u| edges.of(u).len(),
            |u, k| edges.of(u)[k] as usize,
        );
        let mut component_depth = vec![0usize; scc.count()];
        for (c, members) in scc.components.iter().enumerate() {
            let mut best = 0usize;
            for &member in members {
                for &target in edges.of(member as usize) {
                    let d = scc.component_of[target as usize];
                    if d != c {
                        best = best.max(1 + component_depth[d]);
                    }
                }
            }
            component_depth[c] = best;
        }
        // Record the multi-member components: those are the glueless
        // dependency cycles the lint engine reports as evidence.
        let mut cycles = Vec::new();
        for members in &scc.components {
            if members.len() >= 2 {
                let mut cycle: Vec<ServerId> = members.iter().map(|&m| ServerId(m)).collect();
                cycle.sort_unstable();
                cycles.push(cycle);
            }
        }
        let depth = scc
            .component_of
            .iter()
            .map(|&c| component_depth[c])
            .collect();
        DepthIndex::with_cycles(depth, cycles).expect("Tarjan components are disjoint")
    }

    /// Glueless nesting depth of `server`'s own address resolution.
    pub fn depth_of_server(&self, server: ServerId) -> usize {
        self.depth[server.index()]
    }

    /// The glueless dependency cycle `server` belongs to, when it sits on
    /// a multi-member SCC of the glueless graph (members ascending by id).
    pub fn cycle_of(&self, server: ServerId) -> Option<&[ServerId]> {
        match self.cycle_id[server.index()] {
            u32::MAX => None,
            i => Some(&self.cycles[i as usize]),
        }
    }

    /// Every glueless dependency cycle in the universe.
    pub fn cycles(&self) -> &[Vec<ServerId>] {
        &self.cycles
    }

    /// Glueless nesting depth of resolving `name`: the deepest chain of
    /// "resolve a server name to resolve a server name…" it can force.
    pub fn depth_of_name(&self, universe: &Universe, name: &DnsName) -> usize {
        self.depth_of_chain(universe, &universe.chain_zones(name))
    }

    /// [`DepthIndex::depth_of_name`] for an already-computed delegation
    /// chain (the survey's allocation-free path).
    pub fn depth_of_chain(&self, universe: &Universe, chain: &[ZoneId]) -> usize {
        let mut worst = 0usize;
        for &zid in chain {
            let zone = universe.zone(zid);
            for &sid in &zone.ns {
                let server = universe.server(sid);
                if server.is_root || server.name.is_subdomain_of(&zone.origin) {
                    continue;
                }
                worst = worst.max(1 + self.depth[sid.index()]);
            }
        }
        worst
    }
}

/// Bit set in [`columns::MISCONFIG_FLAGS`] when the name's own zone has a
/// single nameserver.
pub const FLAG_SINGLE_SERVER: usize = 1 << 0;
/// Bit: all of the zone's nameservers share one operator domain.
pub const FLAG_SINGLE_OPERATOR: usize = 1 << 1;
/// Bit: some NS of the zone resolves nowhere in the modeled universe.
pub const FLAG_UNRESOLVABLE_NS: usize = 1 << 2;
/// Bit: glueless dependency nesting exceeds
/// [`crate::lint::DeepChainRule::THRESHOLD`], the `deep-chain` rule's
/// threshold.
pub const FLAG_DEEP_DEPENDENCY: usize = 1 << 3;

/// Per-name configuration-error audit as a pluggable survey metric: a flag
/// bitmask (`misconfig_flags`) plus the cycle-collapsed glueless nesting
/// depth (`misconfig_depth`, see [`DepthIndex`]) for every surveyed name.
#[derive(Debug, Clone, Copy, Default)]
pub struct MisconfigMetric;

/// Per-universe precomputation behind [`MisconfigMetric`]: every zone's
/// structural flag bits plus the cycle-collapsed [`DepthIndex`]. Built once
/// per engine run (via [`NameMetric::prepare`]) and shared by all workers.
#[derive(Debug, Clone)]
pub struct MisconfigIndex {
    zone_flags: Vec<usize>,
    depths: DepthIndex,
}

impl MisconfigIndex {
    /// Builds the index (O(zones × NS + servers + edges)).
    ///
    /// The per-zone flag bits are derived from the lint rules
    /// ([`crate::lint::zone_structural_flags`]), so the aggregate metric
    /// and the per-subject diagnostics cannot drift apart: both paths run
    /// the same predicates.
    pub fn build(universe: &Universe) -> MisconfigIndex {
        let mut zone_flags = vec![0usize; universe.zone_count()];
        for zid in universe.zone_ids() {
            zone_flags[zid.index()] = crate::lint::zone_structural_flags(universe, zid);
        }
        MisconfigIndex {
            zone_flags,
            depths: DepthIndex::build(universe),
        }
    }

    /// The structural flag bits of `zone`.
    pub fn zone_flags(&self, zone: ZoneId) -> usize {
        self.zone_flags[zone.index()]
    }

    /// The shared depth index.
    pub fn depths(&self) -> &DepthIndex {
        &self.depths
    }
}

impl NameMetric for MisconfigMetric {
    fn id(&self) -> &str {
        "misconfig"
    }

    fn columns(&self) -> Vec<(&str, ColumnKind)> {
        vec![
            (columns::MISCONFIG_FLAGS, ColumnKind::Counts),
            (columns::MISCONFIG_DEPTH, ColumnKind::Counts),
        ]
    }

    fn prepare<'a>(&'a self, universe: &'a Universe) -> Measure<'a> {
        let index = MisconfigIndex::build(universe);
        Box::new(move |ctx, row| {
            // The name's own zone is the deepest zone on its chain; an
            // empty chain means only the root encloses it, whose flags
            // are zero.
            let chain = ctx.closure.target_chain();
            let mut flags = chain.last().map(|&zid| index.zone_flags(zid)).unwrap_or(0);
            let depth = index.depths().depth_of_chain(ctx.universe, chain);
            // Same threshold predicate as the `deep-chain` lint rule.
            if crate::lint::DeepChainRule::exceeds(depth) {
                flags |= FLAG_DEEP_DEPENDENCY;
            }
            row.count(flags);
            row.count(depth);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;
    use perils_dns::name::name;

    fn base() -> crate::universe::UniverseBuilder {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.add_zone(
            &perils_dns::name::DnsName::root(),
            &[name("a.root-servers.net")],
        );
        b.add_zone(&name("com"), &[name("a.root-servers.net")]);
        b.add_zone(&name("net"), &[name("a.root-servers.net")]);
        b
    }

    #[test]
    fn dependency_depth_counts_glueless_nesting() {
        let mut b = base();
        // victim.com → ns in a.net → a.net served from b.net → b.net glued.
        b.add_zone(&name("victim.com"), &[name("ns.a.net")]);
        b.add_zone(&name("a.net"), &[name("ns.b.net")]);
        b.add_zone(&name("b.net"), &[name("ns.b.net")]);
        let u = b.finish();
        // Resolving victim requires ns.a.net (1), whose chain needs a.net's
        // server ns.b.net (2); ns.b.net is glued in b.net (stop).
        assert_eq!(dependency_depth(&u, &name("www.victim.com")), 2);
        // A self-hosted name has depth 0.
        let mut b = base();
        b.add_zone(&name("self.com"), &[name("ns1.self.com")]);
        let u = b.finish();
        assert_eq!(dependency_depth(&u, &name("www.self.com")), 0);
    }

    /// victim.com nests two glueless levels; self.com hosts itself.
    fn acyclic_web() -> Universe {
        let mut b = base();
        b.add_zone(&name("victim.com"), &[name("ns.a.net")]);
        b.add_zone(&name("a.net"), &[name("ns.b.net")]);
        b.add_zone(&name("b.net"), &[name("ns.b.net")]);
        b.add_zone(&name("self.com"), &[name("ns1.self.com")]);
        b.finish()
    }

    /// An archived depth at or past the server count cannot come from a
    /// build (each glueless component is visited once per path), so the
    /// loader refuses it rather than hand lint an out-of-range count.
    #[test]
    fn archived_depths_stay_below_the_server_count() {
        let u = acyclic_web();
        let built = DepthIndex::build(&u);
        let (depth, cycles) = built.snapshot_parts();
        let (depth, cycles) = (depth.to_vec(), cycles.to_vec());
        let n = u.server_count();
        assert!(depth.iter().all(|&d| d < n));
        assert!(DepthIndex::from_snapshot_parts(n, depth.clone(), cycles.clone()).is_ok());
        let mut deep = depth;
        deep[0] = n;
        let err = DepthIndex::from_snapshot_parts(n, deep, cycles).expect_err("out of range");
        assert!(err.contains("glueless depth"), "{err}");
    }

    /// Mutual glueless secondaries: x.com ↔ y.com.
    fn mutual_pair() -> Universe {
        let mut b = base();
        b.add_zone(&name("x.com"), &[name("ns.y.com")]);
        b.add_zone(&name("y.com"), &[name("ns.x.com")]);
        b.finish()
    }

    /// A single-server zone beside a three-level glueless chain
    /// (victim.com → a.net → b.net → c.net).
    fn metric_world() -> Universe {
        let mut b = base();
        b.add_zone(&name("solo.com"), &[name("ns1.solo.com")]);
        b.add_zone(&name("victim.com"), &[name("ns.a.net")]);
        b.add_zone(&name("a.net"), &[name("ns.b.net")]);
        b.add_zone(&name("b.net"), &[name("ns.c.net")]);
        b.add_zone(&name("c.net"), &[name("ns.c.net")]);
        b.finish()
    }

    #[test]
    fn depth_index_agrees_with_exhaustive_on_acyclic_webs() {
        let u = acyclic_web();
        let index = DepthIndex::build(&u);
        for target in [
            name("www.victim.com"),
            name("www.self.com"),
            name("www.b.net"),
        ] {
            assert_eq!(
                index.depth_of_name(&u, &target),
                dependency_depth(&u, &target),
                "{target}"
            );
        }
    }

    #[test]
    fn depth_index_collapses_cycles() {
        // Mutual glueless secondaries: x.com ↔ y.com. The exhaustive
        // search walks into the cycle and once around it; the index
        // collapses the cycle to a single level. Both terminate.
        let u = mutual_pair();
        let index = DepthIndex::build(&u);
        assert_eq!(index.depth_of_name(&u, &name("www.x.com")), 1);
        assert_eq!(dependency_depth(&u, &name("www.x.com")), 3);
    }

    #[test]
    fn misconfig_metric_flags_and_depth() {
        let u = metric_world();
        let metric = MisconfigMetric;
        let targets = [
            name("www.solo.com"),
            name("www.victim.com"),
            name("www.a.net"),
        ];
        let cols = crate::metric::tests::measure_targets(&metric, &u, &targets);
        let flags = cols[0].as_counts().expect("counts");
        let depth = cols[1].as_counts().expect("counts");
        assert_ne!(flags[0] & FLAG_SINGLE_SERVER, 0, "solo.com has one NS");
        assert_eq!(depth[0], 0, "glued self-hosting nests nothing");
        assert_ne!(flags[1] & FLAG_DEEP_DEPENDENCY, 0, "victim nests past 2");
        assert_eq!(depth[1], 3);
        assert_eq!(flags[2] & FLAG_DEEP_DEPENDENCY, 0, "a.net nests only 2");
        assert_eq!(depth[2], 2);
    }

    /// The server-graph form of [`DepthIndex::build`], the reference the
    /// edge-list build must equal field for field: every server's chain
    /// looked up by name, each glueless edge inserted into a per-server
    /// adjacency list with dedup, Tarjan over those lists, and longest
    /// paths over the deduplicated component edges.
    fn reference_build(universe: &Universe) -> DepthIndex {
        use perils_graph::scc::tarjan_scc_with;
        let n = universe.server_count();
        let mut graph: Vec<Vec<usize>> = vec![Vec::new(); n];
        for sid in universe.server_ids() {
            let entry = universe.server(sid);
            if entry.is_root {
                continue;
            }
            for &zid in &universe.chain_zones(&entry.name) {
                let zone = universe.zone(zid);
                for &dep in &zone.ns {
                    let dep_server = universe.server(dep);
                    let out = &mut graph[sid.index()];
                    if !dep_server.is_root
                        && !dep_server.name.is_subdomain_of(&zone.origin)
                        && !out.contains(&dep.index())
                    {
                        out.push(dep.index());
                    }
                }
            }
        }
        let scc = tarjan_scc_with(n, |u| graph[u].len(), |u, k| graph[u][k]);
        let mut dag: Vec<Vec<usize>> = vec![Vec::new(); scc.count()];
        for (from, outs) in graph.iter().enumerate() {
            for &to in outs {
                let (cf, ct) = (scc.component_of[from], scc.component_of[to]);
                if cf != ct && !dag[cf].contains(&ct) {
                    dag[cf].push(ct);
                }
            }
        }
        let mut component_depth = vec![0usize; scc.count()];
        for c in 0..scc.count() {
            let mut best = 0usize;
            for &d in &dag[c] {
                best = best.max(1 + component_depth[d]);
            }
            component_depth[c] = best;
        }
        let mut members: Vec<Vec<ServerId>> = vec![Vec::new(); scc.count()];
        for i in 0..n {
            members[scc.component_of[i]].push(ServerId(i as u32));
        }
        let cycles = members.into_iter().filter(|m| m.len() >= 2).collect();
        let depth = (0..n)
            .map(|i| component_depth[scc.component_of[i]])
            .collect();
        DepthIndex::with_cycles(depth, cycles).expect("components are disjoint")
    }

    /// A seeded random universe of 20–60 zones besides the root: nested
    /// zones under three TLDs, NS hosts in and out of bailiwick, mutual
    /// glueless secondaries, hosts under an undelegated TLD (no home zone
    /// at all when the root zone is left out), and root servers serving
    /// zones.
    fn random_universe(seed: u64) -> Universe {
        use perils_util::Rng;
        let mut rng = Rng::new(seed);
        let mut b = Universe::builder();
        let roots = [name("a.root-servers.net"), name("b.root-servers.net")];
        for root in &roots {
            b.raw_server(root, false, true);
        }
        if rng.chance(0.8) {
            b.add_zone(&DnsName::root(), &roots);
        }
        let tlds = ["com", "net", "org"];
        for tld in tlds {
            b.add_zone(&name(tld), &[roots[0].clone(), name("a.gtld.net")]);
        }
        let zones = 20 + rng.below_usize(41) - tlds.len();
        let mut origins: Vec<String> = Vec::new();
        for i in 0..zones {
            let origin = if !origins.is_empty() && rng.chance(0.35) {
                format!("s{i}.{}", origins[rng.below_usize(origins.len())])
            } else {
                format!("d{i}.{}", tlds[rng.below_usize(tlds.len())])
            };
            origins.push(origin);
        }
        let mut ns: Vec<Vec<DnsName>> = vec![Vec::new(); zones];
        for (i, list) in ns.iter_mut().enumerate() {
            for _ in 0..1 + rng.below_usize(4) {
                let host = match rng.below_usize(10) {
                    0..=2 => format!("ns{}.{}", rng.below_usize(3), origins[i]),
                    3..=7 => format!(
                        "ns{}.{}",
                        rng.below_usize(3),
                        origins[rng.below_usize(zones)]
                    ),
                    8 => format!("ns{}.nowhere.test", rng.below_usize(3)),
                    _ => roots[rng.below_usize(2)].to_string(),
                };
                list.push(name(&host));
            }
        }
        for _ in 0..rng.below_usize(4) {
            let (i, j) = (rng.below_usize(zones), rng.below_usize(zones));
            ns[i].push(name(&format!("ns9.{}", origins[j])));
            ns[j].push(name(&format!("ns9.{}", origins[i])));
        }
        // Zones arrive in a shuffled order, so ids do not follow the tree.
        let mut order: Vec<usize> = (0..zones).collect();
        rng.shuffle(&mut order);
        for i in order {
            b.add_zone(&name(&origins[i]), &ns[i]);
        }
        b.finish()
    }

    #[test]
    fn build_equals_the_server_graph_reference() {
        for u in [acyclic_web(), mutual_pair(), metric_world()] {
            assert_eq!(DepthIndex::build(&u), reference_build(&u));
        }
        let mut cyclic = 0;
        for seed in 0..300 {
            let u = random_universe(seed);
            let index = DepthIndex::build(&u);
            cyclic += usize::from(!index.cycles().is_empty());
            assert_eq!(index, reference_build(&u), "seed {seed}");
        }
        assert!(cyclic > 30, "only {cyclic} random universes had a cycle");
    }
}
