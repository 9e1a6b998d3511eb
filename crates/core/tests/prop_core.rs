//! Property-based tests of the transitive-trust analyses over random
//! universes: closure monotonicity, hijack-set validity and minimality
//! against brute force, reachability monotonicity, the restricted
//! reachability frame against the closure's extracted sub-universe, and
//! the flattened cut and its choke-point witness against the delegation
//! graph the `perils-oracle` crate builds as an object, and the lemma
//! that lets `choke-point` skip names under no single-server zone.

use proptest::prelude::*;

use perils_core::closure::DependencyIndex;
use perils_core::hijack::{min_cut_flattened_view, min_hijack_exact, HijackSet};
use perils_core::lint::{At, ChokePointRule, LintIndex, RuleRegistry, Subject};
use perils_core::universe::{ServerId, Universe, ZoneId};
use perils_core::usable::{Frame, Reachability, Scratch};
use perils_dns::name::{name, DnsName};
use perils_graph::flow::INF;
use perils_oracle::closure::{closure_for_bfs, extract_universe};
use perils_oracle::flow::min_vertex_cut;
use perils_oracle::lint::check_universe;
use perils_oracle::traversal::shortest_path;
use perils_oracle::DelegationGraph;

use std::collections::{BTreeMap, BTreeSet};

/// A random small universe: root + a few TLDs + `n_domains` zones whose
/// NS sets draw from a shared pool of server names (self-hosted, provider,
/// or cross-domain), with random per-server vulnerability.
#[derive(Debug, Clone)]
struct WorldSpec {
    n_domains: usize,
    /// For each domain: (style, provider idx, cross idx, vulnerable).
    choices: Vec<(u8, usize, usize, bool)>,
}

fn arb_world() -> impl Strategy<Value = WorldSpec> {
    (2usize..8).prop_flat_map(|n_domains| {
        proptest::collection::vec((0u8..3, 0usize..4, 0usize..8, any::<bool>()), n_domains)
            .prop_map(move |choices| WorldSpec { n_domains, choices })
    })
}

fn build(spec: &WorldSpec) -> (Universe, Vec<DnsName>) {
    let mut b = Universe::builder();
    b.raw_server(&name("a.root-servers.net"), false, true);
    b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
    b.add_zone(&name("com"), &[name("a.root-servers.net")]);
    b.add_zone(&name("net"), &[name("a.root-servers.net")]);
    // Four providers, self-hosted.
    for p in 0..4 {
        let vulnerable = p == 1;
        b.raw_server(&name(&format!("ns1.prov{p}.net")), vulnerable, false);
        b.add_zone(
            &name(&format!("prov{p}.net")),
            &[
                name(&format!("ns1.prov{p}.net")),
                name(&format!("ns2.prov{p}.net")),
            ],
        );
    }
    let mut targets = Vec::new();
    for (i, &(style, provider, cross, vulnerable)) in spec.choices.iter().enumerate() {
        let origin = name(&format!("d{i}.com"));
        match style {
            0 => {
                // Self-hosted.
                b.raw_server(&name(&format!("ns1.d{i}.com")), vulnerable, false);
                b.add_zone(
                    &origin,
                    &[
                        name(&format!("ns1.d{i}.com")),
                        name(&format!("ns2.d{i}.com")),
                    ],
                );
            }
            1 => {
                // Provider-hosted.
                b.add_zone(
                    &origin,
                    &[
                        name(&format!("ns1.prov{provider}.net")),
                        name(&format!("ns2.prov{provider}.net")),
                    ],
                );
            }
            _ => {
                // Mixed: one own box + one box of another domain (chains!).
                let other = cross % spec.n_domains;
                b.raw_server(&name(&format!("ns1.d{i}.com")), vulnerable, false);
                b.add_zone(
                    &origin,
                    &[
                        name(&format!("ns1.d{i}.com")),
                        name(&format!("ns1.d{other}.com")),
                    ],
                );
            }
        }
        targets.push(name(&format!("www.d{i}.com")));
    }
    (b.finish(), targets)
}

/// A world for the flattened cut, where which layer is cheapest to cut is
/// open (in [`WorldSpec`]'s worlds one root server is all of `com` and
/// `net`, so the cut is always the target zone's own NS set). `com` and
/// `net` are on two cuttable registry servers each and share one; `org`
/// and `arpa` are on the root server; domain `i` lives under TLD `i % 3`
/// and lists one to three hosts `h{a}.d{j}.<tld of j>` of *any* domain.
#[derive(Debug, Clone)]
struct WebSpec {
    /// Per domain: its NS hosts as (host, domain) picks.
    ns: Vec<Vec<(usize, usize)>>,
    /// One vulnerability bit per possible host.
    vulnerable: u32,
}

fn arb_web() -> impl Strategy<Value = WebSpec> {
    (2usize..8).prop_flat_map(|n_domains| {
        (
            proptest::collection::vec(
                proptest::collection::vec((0usize..2, 0usize..8), 1..4),
                n_domains,
            ),
            any::<u32>(),
        )
            .prop_map(|(ns, vulnerable)| WebSpec { ns, vulnerable })
    })
}

/// Builds [`WebSpec`]'s world. What the picks produce: a server in
/// several NS sets (the shared registry server, a host picked twice),
/// in-bailiwick servers (`j == i`: a hub feeding its own members), hosts
/// that serve other zones but not their home zone (reached through their
/// own chain's endpoint edge only), mutual dependencies, and — added to
/// every world — a root-served zone with no finite cut and a zone with an
/// empty NS set on the chain of a target and of a nameserver.
fn build_web(spec: &WebSpec) -> (Universe, Vec<DnsName>) {
    let n = spec.ns.len();
    let domain = |j: usize| format!("d{j}.{}", ["com", "net", "org"][j % 3]);
    let mut b = Universe::builder();
    b.raw_server(&name("a.root-servers.net"), false, true);
    b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
    b.add_zone(&name("com"), &[name("a.nic.net"), name("b.nic.net")]);
    b.add_zone(&name("net"), &[name("a.nic.net"), name("c.nic.net")]);
    b.add_zone(&name("nic.net"), &[name("a.nic.net")]);
    b.add_zone(&name("org"), &[name("a.root-servers.net")]);
    b.add_zone(&name("arpa"), &[name("a.root-servers.net")]);
    for j in 0..n {
        for a in 0..2 {
            let vulnerable = (spec.vulnerable >> (2 * j + a)) & 1 == 1;
            b.raw_server(&name(&format!("h{a}.{}", domain(j))), vulnerable, false);
        }
    }
    let mut targets = vec![name("x.arpa")];
    for (i, picks) in spec.ns.iter().enumerate() {
        let ns: Vec<DnsName> = picks
            .iter()
            .map(|&(a, j)| name(&format!("h{a}.{}", domain(j % n))))
            .collect();
        b.add_zone(&name(&domain(i)), &ns);
        targets.push(name(&format!("www.{}", domain(i))));
    }
    let hollow = format!("hollow.{}", domain(0));
    b.add_zone(&name(&hollow), &[]);
    b.add_zone(
        &name(&format!("deep.{hollow}")),
        &[
            name(&format!("ns.{hollow}")),
            name(&format!("h0.{}", domain(1))),
        ],
    );
    targets.push(name(&format!("www.{hollow}")));
    targets.push(name(&format!("www.deep.{hollow}")));
    (b.finish(), targets)
}

/// `min_vertex_cut` over the materialised [`DelegationGraph`], under the
/// weights and the `INF / 2` test of `perils_core::hijack` (whose
/// `SIZE_WEIGHT` is private): the definition the hub-network kernel
/// behind `min_cut_flattened_view` must agree with, member for member.
fn vertex_cut_of_delegation_graph(universe: &Universe, dg: &DelegationGraph) -> Option<HijackSet> {
    let weight = |node| match dg.server_of(node).map(|sid| universe.server(sid)) {
        Some(server) if !server.is_root => 1_000_000 + u64::from(!server.vulnerable),
        _ => INF / 2,
    };
    let cut = min_vertex_cut(&dg.graph, dg.source, dg.sink, weight)?;
    if cut.total_weight >= INF / 2 {
        return None;
    }
    let servers: Vec<ServerId> = cut.cut.iter().filter_map(|&n| dg.server_of(n)).collect();
    Some(HijackSet {
        safe_members: servers
            .iter()
            .filter(|&&s| !universe.server(s).vulnerable)
            .count(),
        servers,
    })
}

/// Checks the `choke-point` findings over `targets` against the oracle
/// delegation graph: one per name whose flattened cut is one server,
/// headed by that server, then the other servers of the graph's least
/// shortest source→target path (the choke is on every path). Returns the
/// number of findings.
fn check_choke_witnesses(universe: &Universe, targets: &[DnsName]) -> Result<usize, String> {
    let index = DependencyIndex::build(universe);
    let facts = LintIndex::build(universe);
    let registry = RuleRegistry::new().register(ChokePointRule);
    let found: Vec<(Subject, Vec<At>)> =
        check_universe(universe, &index, &facts, &registry, targets)
            .into_iter()
            .map(|d| (d.subject, d.evidence.iter().map(|step| step.at).collect()))
            .collect();
    let mut expected = Vec::new();
    let mut ws = index.workspace();
    for (i, target) in targets.iter().enumerate() {
        let view = index.closure_view(universe, target, &mut ws);
        let cut = min_cut_flattened_view(universe, &index, &view);
        let Some(choke) = cut.filter(|cut| cut.size() == 1).map(|cut| cut.servers[0]) else {
            continue;
        };
        let dg = DelegationGraph::build(universe, &view);
        let path = shortest_path(&dg.graph, dg.source, dg.sink).expect("a cut name resolves");
        let others = path
            .into_iter()
            .filter_map(|n| dg.server_of(n))
            .filter(|&s| s != choke);
        let evidence = std::iter::once(choke)
            .chain(others)
            .map(At::Server)
            .collect();
        expected.push((Subject::name_at(i), evidence));
    }
    prop_assert_eq!(&found, &expected);
    Ok(found.len())
}

/// The lemma behind `choke-point`'s precheck, on the name of every zone
/// origin of `universe` (not only the zones of surveyed names): a
/// flattened cut of one server is the lone NS of a zone on the name's
/// own chain. Then the rule, run over the same names, must report
/// exactly the one-server cuts with their witnesses
/// ([`check_choke_witnesses`]). Returns the number of findings.
fn check_one_server_cuts(universe: &Universe) -> Result<usize, String> {
    let origins: Vec<DnsName> = universe
        .zone_ids()
        .map(|z| universe.zone(z).origin.clone())
        .collect();
    let index = DependencyIndex::build(universe);
    let mut ws = index.workspace();
    for origin in &origins {
        let view = index.closure_view(universe, origin, &mut ws);
        let Some(cut) = min_cut_flattened_view(universe, &index, &view) else {
            continue;
        };
        if cut.size() != 1 {
            continue;
        }
        let choke = cut.servers[0];
        prop_assert!(
            view.target_chain()
                .iter()
                .any(|&z| universe.zone(z).ns == [choke]),
            "{}: the cut {:?} is the lone NS of no chain zone",
            origin,
            choke
        );
    }
    check_choke_witnesses(universe, &origins)
}

/// Brute force: the true lexicographic minimum of (hijack size, safe
/// members) by subset enumeration over the closure's non-root servers.
fn brute_min_hijack(universe: &Universe, target: &DnsName, cap: usize) -> Option<(usize, usize)> {
    let index = DependencyIndex::build(universe);
    let mut ws = index.workspace();
    let closure = index.closure_view(universe, target, &mut ws);
    let sub = extract_universe(universe, closure.zones(), closure.servers());
    let candidates: Vec<ServerId> = sub
        .server_ids()
        .filter(|&s| !sub.server(s).is_root)
        .collect();
    if candidates.len() > 18 {
        return None; // too big to brute force; skip
    }
    for size in 0..=cap.min(candidates.len()) {
        // All subsets of `size` via bitmask enumeration.
        let masks = 1u32 << candidates.len();
        let mut fewest_safe: Option<usize> = None;
        for mask in 0..masks {
            if (mask.count_ones() as usize) != size {
                continue;
            }
            let blocked: BTreeSet<ServerId> = candidates
                .iter()
                .enumerate()
                .filter(|(bit, _)| (mask >> bit) & 1 == 1)
                .map(|(_, &s)| s)
                .collect();
            let reach = Reachability::compute(&sub, &blocked);
            if !reach.name_resolves(&sub, target) {
                let safe = blocked
                    .iter()
                    .filter(|&&s| !sub.server(s).vulnerable)
                    .count();
                fewest_safe = Some(fewest_safe.map_or(safe, |best| best.min(safe)));
            }
        }
        if let Some(safe) = fewest_safe {
            return Some((size, safe));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The exact hijack search matches subset-enumeration brute force.
    #[test]
    fn exact_hijack_matches_brute_force(spec in arb_world()) {
        let (universe, targets) = build(&spec);
        let index = DependencyIndex::build(&universe);
        let mut ws = index.workspace();
        for target in targets.iter().take(3) {
            let closure = index.closure_view(&universe, target, &mut ws);
            let exact = min_hijack_exact(&universe, &closure);
            if let Some(brute) = brute_min_hijack(&universe, target, 5) {
                let exact = exact.expect("brute force found a hijack, exact must too");
                prop_assert_eq!(
                    (exact.size(), exact.safe_members),
                    brute,
                    "target {}",
                    target
                );
            }
        }
    }

    /// Every hijack set returned (exact or flattened) really disconnects
    /// the target under the glue-aware semantics... flattened cuts are
    /// validated for the exact semantics only when they claim success.
    #[test]
    fn exact_hijack_sets_are_valid(spec in arb_world()) {
        let (universe, targets) = build(&spec);
        let index = DependencyIndex::build(&universe);
        let mut ws = index.workspace();
        for target in &targets {
            let closure = index.closure_view(&universe, target, &mut ws);
            if let Some(set) = min_hijack_exact(&universe, &closure) {
                let sub = extract_universe(&universe, closure.zones(), closure.servers());
                let blocked: BTreeSet<ServerId> = set
                    .servers
                    .iter()
                    .map(|&s| sub.server_id(&universe.server(s).name).expect("in sub"))
                    .collect();
                let reach = Reachability::compute(&sub, &blocked);
                prop_assert!(
                    !reach.name_resolves(&sub, target),
                    "exact set fails to hijack {target}"
                );
            }
        }
    }

    /// The exact minimum never exceeds the flattened min-cut size.
    #[test]
    fn exact_at_most_flattened(spec in arb_world()) {
        let (universe, targets) = build(&spec);
        let index = DependencyIndex::build(&universe);
        let mut ws = index.workspace();
        for target in &targets {
            let closure = index.closure_view(&universe, target, &mut ws);
            if let (Some(exact), Some(flat)) = (
                min_hijack_exact(&universe, &closure),
                min_cut_flattened_view(&universe, &index, &closure),
            ) {
                prop_assert!(exact.size() <= flat.size(), "target {}", target);
            }
        }
    }

    /// The flattened cut is the vertex cut of the delegation graph: same
    /// verdict, same servers.
    #[test]
    fn flattened_cut_equals_vertex_cut_of_delegation_graph(spec in arb_web()) {
        let (universe, targets) = build_web(&spec);
        let index = DependencyIndex::build(&universe);
        let mut ws = index.workspace();
        for target in &targets {
            let view = index.closure_view(&universe, target, &mut ws);
            let dg = DelegationGraph::build(&universe, &view);
            let expected = vertex_cut_of_delegation_graph(&universe, &dg);
            prop_assert_eq!(
                &min_cut_flattened_view(&universe, &index, &view), &expected,
                "target {}", target
            );
        }
        let arpa = name("x.arpa");
        let arpa = index.closure_view(&universe, &arpa, &mut ws);
        prop_assert_eq!(min_cut_flattened_view(&universe, &index, &arpa), None);
    }

    /// The `choke-point` witness is the oracle delegation graph's least
    /// shortest source→target path, whatever order the hub network was
    /// wired in.
    #[test]
    fn choke_witness_is_the_least_shortest_delegation_path(spec in arb_web()) {
        let (universe, targets) = build_web(&spec);
        check_choke_witnesses(&universe, &targets)?;
    }

    /// A one-server cut sits on a single-server chain zone, for every
    /// zone origin of the web family — whose picks repeat hosts within
    /// one NS set, so this holds only if a zone lists each server once.
    #[test]
    fn one_server_cuts_sit_on_single_server_zones(spec in arb_web()) {
        let (universe, _) = build_web(&spec);
        check_one_server_cuts(&universe)?;
    }

    /// The chain the cut walks for each server — its home zone's parent
    /// links — is the chain a lookup of the server's name finds: in-tree
    /// hosts, hosts under a hollow zone, the root-homed root server.
    #[test]
    fn server_chains_from_parent_links_equal_chain_lookups(spec in arb_web()) {
        let (universe, _) = build_web(&spec);
        let mut chain = Vec::new();
        for sid in universe.server_ids() {
            universe.server_chain_into(sid, &mut chain);
            prop_assert_eq!(&chain, &universe.chain_zones(&universe.server(sid).name), "{:?}", sid);
        }
    }

    /// Closure monotonicity: blocking nothing reaches everything the
    /// closure says could matter, and every zone's NS set is inside the
    /// closure's server set (NS-completeness).
    #[test]
    fn closures_are_ns_complete(spec in arb_world()) {
        let (universe, targets) = build(&spec);
        let index = DependencyIndex::build(&universe);
        let mut ws = index.workspace();
        for target in &targets {
            let closure = index.closure_view(&universe, target, &mut ws);
            for zid in closure.zones() {
                for &ns in &universe.zone(zid).ns {
                    prop_assert!(
                        closure.contains_server(ns),
                        "zone {} NS outside closure of {}",
                        universe.zone(zid).origin,
                        target
                    );
                }
            }
        }
    }

    /// The restricted frame of a closure — what the exact hijack search
    /// solves on — agrees with the independent oracle: the closure pushed
    /// back through `UniverseBuilder` by name and solved whole. Same
    /// reachable zones, same verdict on the target, same witness, under
    /// any blocked subset — also when about one zone in eight is struck
    /// from the closure first, so that parents, home zones and the
    /// target's zone must be found further up.
    #[test]
    fn restricted_frame_equals_extracted_universe(
        spec in arb_world(),
        mask in any::<u64>(),
        strike in any::<u64>(),
    ) {
        let (universe, targets) = build(&spec);
        let index = DependencyIndex::build(&universe);
        let mut ws = index.workspace();
        let mut scratch = Scratch::default();
        let mut witness = Vec::new();
        for target in &targets {
            let view = index.closure_view(&universe, target, &mut ws);
            let mut rank = 0;
            let zones: Vec<ZoneId> = view
                .zones()
                .filter(|_| {
                    rank += 1;
                    (strike >> (3 * rank % 61)) & 7 != 7
                })
                .collect();
            let sub = extract_universe(&universe, zones.iter().copied(), view.servers());
            let frame = Frame::restricted(&universe, zones.iter().copied(), view.servers());
            prop_assert_eq!(frame.zone_count(), zones.len());
            prop_assert_eq!(frame.server_count(), view.server_count());

            let flags: Vec<bool> = (0..frame.server_count())
                .map(|s| (mask >> (s % 64)) & 1 == 1)
                .collect();
            let in_sub = |s: usize| {
                sub.server_id(&universe.server(frame.server_id(s)).name).expect("in sub")
            };
            let blocked: BTreeSet<ServerId> =
                (0..flags.len()).filter(|&s| flags[s]).map(in_sub).collect();
            let oracle = Reachability::compute(&sub, &blocked);
            frame.solve(&flags, &mut scratch);

            for &zid in &zones {
                let origin = &universe.zone(zid).origin;
                let local = frame.enclosing_zone(&universe, origin).expect("closure zone in frame");
                prop_assert_eq!(
                    scratch.zone_reachable(local),
                    oracle.zone_reachable(sub.zone_id(origin).expect("in sub")),
                    "zone {} of {} under {:#x}/{:#x}", origin, target, mask, strike
                );
            }
            let zone = frame.enclosing_zone(&universe, target);
            prop_assert_eq!(
                zone.is_some_and(|z| scratch.zone_reachable(z)),
                oracle.name_resolves(&sub, target),
                "{} under {:#x}/{:#x}", target, mask, strike
            );
            let found = zone.is_some_and(|z| frame.witness_into(&mut scratch, z, &mut witness));
            let ours = found.then(|| witness.iter().map(|&s| in_sub(s as usize)).collect::<Vec<_>>());
            prop_assert_eq!(ours, oracle.witness(&sub, target), "witness of {}", target);
        }
    }

    /// The universe's precomputed zone-parent and server-home links are
    /// what label walks over the registered origins find, and
    /// `Reachability` takes each server's home zone from them.
    #[test]
    fn reachability_links_are_the_universe_links(spec in arb_world()) {
        let (universe, _) = build(&spec);
        let reach = Reachability::compute(&universe, &BTreeSet::new());
        for zid in universe.zone_ids() {
            let walked = universe.zone(zid).origin.parent().and_then(|p| universe.zone_of(&p));
            prop_assert_eq!(universe.parent_zone_of(zid), walked, "{}", universe.zone(zid).origin);
        }
        for sid in universe.server_ids() {
            prop_assert_eq!(reach.home_zone_of(sid), universe.home_zone_of(sid));
            prop_assert_eq!(
                reach.home_zone_of(sid),
                universe.zone_of(&universe.server(sid).name),
                "{}", universe.server(sid).name
            );
        }
    }

    /// Reachability is antitone in the blocked set: blocking more servers
    /// never makes more zones reachable.
    #[test]
    fn reachability_is_antitone(spec in arb_world(), extra in 0usize..6) {
        let (universe, _) = build(&spec);
        let small: BTreeSet<ServerId> = universe
            .server_ids()
            .filter(|s| s.index() % 5 == 0)
            .collect();
        let mut large = small.clone();
        for sid in universe.server_ids() {
            if sid.index() % 6 == extra % 6 {
                large.insert(sid);
            }
        }
        let reach_small = Reachability::compute(&universe, &small);
        let reach_large = Reachability::compute(&universe, &large);
        for zid in universe.zone_ids() {
            if reach_large.zone_reachable(zid) {
                prop_assert!(
                    reach_small.zone_reachable(zid),
                    "blocking more servers resurrected {}",
                    universe.zone(zid).origin
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// The borrowed [`perils_core::ClosureView`] enumerates exactly the
    /// BFS reference's sets — sorted slices for BTreeSets — on both world
    /// families. In the web family the TLDs are served by hosts under
    /// `nic.net`, so a server's dependencies include NS sets of its
    /// parent zones that no target's own chain supplies.
    #[test]
    fn closure_view_equals_bfs(spec in arb_world(), web in arb_web()) {
        for (universe, targets) in [build(&spec), build_web(&web)] {
            let index = DependencyIndex::build(&universe);
            let mut ws = index.workspace();
            for target in &targets {
                let (servers, zones) = closure_for_bfs(&universe, target);
                let view = index.closure_view(&universe, target, &mut ws);
                prop_assert_eq!(view.servers().collect::<Vec<_>>(), servers, "servers of {}", target);
                prop_assert_eq!(view.zones().collect::<Vec<_>>(), zones, "zones of {}", target);
                prop_assert_eq!(
                    view.target_chain(), &universe.chain_zones(target)[..],
                    "chain of {}", target
                );
            }
        }
    }

    /// The index does not depend on the thread that builds it: an index
    /// built on a worker thread while another builds concurrently has the
    /// caller's `DEPINDEX` bytes and closures (the
    /// build is serial and shares no state between calls).
    #[test]
    fn index_build_thread_invariant(spec in arb_world()) {
        let (universe, targets) = build(&spec);
        let serial = DependencyIndex::build(&universe);
        let (parallel, other) = std::thread::scope(|s| {
            let a = s.spawn(|| DependencyIndex::build(&universe));
            let b = s.spawn(|| DependencyIndex::build(&universe));
            (a.join().expect("build thread"), b.join().expect("build thread"))
        });
        prop_assert!(parallel == serial && other == serial, "DEPINDEX bytes diverged");
        prop_assert_eq!(serial.component_count(), parallel.component_count());
        let (mut ws_a, mut ws_b) = (serial.workspace(), parallel.workspace());
        for target in targets.iter().take(3) {
            let a = serial.closure_view(&universe, target, &mut ws_a);
            let b = parallel.closure_view(&universe, target, &mut ws_b);
            prop_assert!(a.servers().eq(b.servers()), "servers of {}", target);
            prop_assert!(a.zones().eq(b.zones()), "zones of {}", target);
        }
    }
}

/// The witness property on the worlds `lint --world` builds whose lint
/// goldens carry every `choke-point` finding: two names in fbi, two in
/// cornell, five in the tripwire.
#[test]
fn scenario_choke_witnesses_are_the_least_shortest_delegation_paths() {
    let mut chokes = BTreeMap::new();
    for world in ["fbi", "cornell", "tripwire"] {
        let built = perils_survey::WorldSpec::parse(world, 0)
            .expect("a named world")
            .stream()
            .collect();
        let targets: Vec<DnsName> = built.names.into_iter().map(|n| n.name).collect();
        let found = check_choke_witnesses(&built.universe, &targets)
            .unwrap_or_else(|e| panic!("{world}: {e}"));
        chokes.insert(world, found);
    }
    assert_eq!(
        chokes,
        BTreeMap::from([("cornell", 2), ("fbi", 2), ("tripwire", 5)])
    );
}

/// [`check_one_server_cuts`] on the built worlds: the tiny world at three
/// seeds (no zone there has one server, so no origin may be cut to one)
/// and the three scenario worlds, where more origins are cut than the
/// surveyed names the lint goldens cover.
#[test]
fn one_server_cuts_sit_on_single_server_zones_of_built_worlds() {
    let mut chokes = BTreeMap::new();
    for (world, seed) in [
        ("tiny", 1),
        ("tiny", 11),
        ("tiny", 2005),
        ("fbi", 0),
        ("cornell", 0),
        ("tripwire", 0),
    ] {
        let built = perils_survey::WorldSpec::parse(world, seed)
            .expect("a named world")
            .stream()
            .collect();
        let found = check_one_server_cuts(&built.universe)
            .unwrap_or_else(|e| panic!("{world} (seed {seed}): {e}"));
        chokes.insert((world, seed), found);
    }
    assert_eq!(
        chokes,
        BTreeMap::from([
            (("cornell", 0), 12),
            (("fbi", 0), 7),
            (("tiny", 1), 0),
            (("tiny", 11), 0),
            (("tiny", 2005), 0),
            (("tripwire", 0), 13),
        ])
    );
}
