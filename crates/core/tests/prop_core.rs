//! Property-based tests of the transitive-trust analyses over random
//! universes: closure monotonicity, hijack-set validity and minimality
//! against brute force, reachability monotonicity, and the restricted
//! reachability frame against the closure's extracted sub-universe.

use proptest::prelude::*;

use perils_core::closure::DependencyIndex;
use perils_core::delegation::DelegationGraph;
use perils_core::hijack::{min_cut_flattened, min_cut_flattened_view, min_hijack_exact, HijackSet};
use perils_core::universe::{ServerId, Universe};
use perils_core::usable::{Frame, Reachability, Scratch};
use perils_dns::name::{name, DnsName};
use perils_graph::flow::{min_vertex_cut, INF};
use std::collections::BTreeSet;

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
/// behind `min_cut_flattened` must agree with, member for member.
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

/// Brute force: the true lexicographic minimum of (hijack size, safe
/// members) by subset enumeration over the closure's non-root servers.
fn brute_min_hijack(universe: &Universe, target: &DnsName, cap: usize) -> Option<(usize, usize)> {
    let index = DependencyIndex::build(universe);
    let closure = index.closure_for(universe, target);
    let sub = closure.extract_universe(universe);
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
        for target in targets.iter().take(3) {
            let closure = index.closure_for(&universe, target);
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
        for target in &targets {
            let closure = index.closure_for(&universe, target);
            if let Some(set) = min_hijack_exact(&universe, &closure) {
                let sub = closure.extract_universe(&universe);
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
        for target in &targets {
            let closure = index.closure_for(&universe, target);
            if let (Some(exact), Some(flat)) = (
                min_hijack_exact(&universe, &closure),
                min_cut_flattened(&universe, &index, &closure),
            ) {
                prop_assert!(exact.size() <= flat.size(), "target {}", target);
            }
        }
    }

    /// The flattened cut is the vertex cut of the delegation graph: same
    /// verdict, same servers, from the owned closure and from the view.
    #[test]
    fn flattened_cut_equals_vertex_cut_of_delegation_graph(spec in arb_web()) {
        let (universe, targets) = build_web(&spec);
        let index = DependencyIndex::build(&universe);
        let mut ws = index.workspace();
        for target in &targets {
            let closure = index.closure_for(&universe, target);
            let dg = DelegationGraph::build(&universe, &index, &closure);
            let expected = vertex_cut_of_delegation_graph(&universe, &dg);
            prop_assert_eq!(
                &min_cut_flattened(&universe, &index, &closure), &expected,
                "target {}", target
            );
            let view = index.closure_view(&universe, target, &mut ws);
            prop_assert_eq!(
                &min_cut_flattened_view(&universe, &index, &view), &expected,
                "target {} (view)", target
            );
        }
        let arpa = index.closure_for(&universe, &name("x.arpa"));
        prop_assert_eq!(min_cut_flattened(&universe, &index, &arpa), None);
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
        for target in &targets {
            let closure = index.closure_for(&universe, target);
            for &zid in &closure.zones {
                for ns in &universe.zone(zid).ns {
                    prop_assert!(
                        closure.servers.contains(ns),
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
            let mut closure = index.closure_for(&universe, target);
            let mut rank = 0;
            closure.zones.retain(|_| {
                rank += 1;
                (strike >> (3 * rank % 61)) & 7 != 7
            });
            let sub = closure.extract_universe(&universe);
            // Zones from the owned closure, servers from the borrowed view:
            // the frame takes either.
            let view = index.closure_view(&universe, target, &mut ws);
            let frame = Frame::restricted(&universe, closure.zones.iter().copied(), view.servers());
            prop_assert_eq!(frame.zone_count(), closure.zones.len());
            prop_assert_eq!(frame.server_count(), closure.servers.len());

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

            for &zid in &closure.zones {
                let origin = &universe.zone(zid).origin;
                let local = frame.local_zone(zid).expect("closure zone in frame");
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

    /// `Reachability` takes each zone's parent and each server's home zone
    /// from the universe's precomputed links, and those are what label
    /// walks over the registered origins find.
    #[test]
    fn reachability_links_are_the_universe_links(spec in arb_world()) {
        let (universe, _) = build(&spec);
        let reach = Reachability::compute(&universe, &BTreeSet::new());
        for zid in universe.zone_ids() {
            prop_assert_eq!(reach.parent_of(zid), universe.parent_zone_of(zid));
            let walked = universe.zone(zid).origin.parent().and_then(|p| universe.zone_of(&p));
            prop_assert_eq!(reach.parent_of(zid), walked, "{}", universe.zone(zid).origin);
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

    /// The memoized sub-closure union agrees with the legacy per-name BFS
    /// set-for-set on random universes — including the cyclic ones the
    /// mixed hosting style produces (mutual cross-domain secondaries, the
    /// cornell ↔ rochester pattern).
    #[test]
    fn memoized_closure_equals_bfs(spec in arb_world()) {
        let (universe, targets) = build(&spec);
        let index = DependencyIndex::build(&universe);
        let mut ws = index.workspace();
        for target in &targets {
            let memo = index.closure_for_with(&universe, target, &mut ws);
            let bfs = index.closure_for_bfs(&universe, target);
            prop_assert_eq!(&memo.servers, &bfs.servers, "servers of {}", target);
            prop_assert_eq!(&memo.zones, &bfs.zones, "zones of {}", target);
            prop_assert_eq!(&memo.target_chain, &bfs.target_chain, "chain of {}", target);
        }
    }

    /// The borrowed [`perils_core::ClosureView`] enumerates exactly the
    /// BFS reference's sets — sorted slices for BTreeSets — under both the
    /// serial and the level-parallel memoization (thread counts 1 and 8).
    #[test]
    fn closure_view_equals_bfs(spec in arb_world()) {
        let (universe, targets) = build(&spec);
        for threads in [1usize, 8] {
            let index = DependencyIndex::build_with_threads(&universe, threads);
            let mut ws = index.workspace();
            for target in &targets {
                let bfs = index.closure_for_bfs(&universe, target);
                let view = index.closure_view(&universe, target, &mut ws);
                prop_assert_eq!(
                    view.servers().collect::<Vec<_>>(),
                    bfs.servers.iter().copied().collect::<Vec<_>>(),
                    "servers of {} at {} threads", target, threads
                );
                prop_assert_eq!(
                    view.zones().collect::<Vec<_>>(),
                    bfs.zones.iter().copied().collect::<Vec<_>>(),
                    "zones of {} at {} threads", target, threads
                );
                prop_assert_eq!(
                    view.target_chain(), &bfs.target_chain[..],
                    "chain of {} at {} threads", target, threads
                );
            }
        }
    }

    /// The parallel index build is invariant in the thread count: the
    /// dependency rows, the interner statistics and every closure match
    /// the single-threaded build exactly (level-parallel memoization ≡
    /// serial memoization).
    #[test]
    fn index_build_thread_invariant(spec in arb_world()) {
        let (universe, targets) = build(&spec);
        let serial = DependencyIndex::build_with_threads(&universe, 1);
        let parallel = DependencyIndex::build_with_threads(&universe, 8);
        for sid in universe.server_ids() {
            prop_assert!(serial.deps_of(sid).eq(parallel.deps_of(sid)), "deps of {:?}", sid);
        }
        prop_assert_eq!(serial.component_count(), parallel.component_count());
        prop_assert_eq!(serial.memo_stats(), parallel.memo_stats());
        for target in targets.iter().take(3) {
            let a = serial.closure_for(&universe, target);
            let b = parallel.closure_for(&universe, target);
            prop_assert_eq!(&a.servers, &b.servers, "servers of {}", target);
            prop_assert_eq!(&a.zones, &b.zones, "zones of {}", target);
        }
    }
}
