//! Complete-hijack analysis (§3.2, Figure 7).
//!
//! "We examined the chances of a complete domain hijack by counting the
//! minimum number of nameservers that need to be attacked in order to
//! completely take over a domain. Such critical bottleneck nameservers can
//! be determined by computing a min-cut of the delegation graph."
//!
//! Two computations are provided:
//!
//! * [`min_cut_flattened_view`] — the paper's method: a minimum vertex cut of
//!   the flattened delegation graph, weighted lexicographically by (cut
//!   size, number of *safe* members) so the most attacker-friendly minimum
//!   cut is reported; [`choke_witness`] reads a resolution path through a
//!   one-server cut off the same network;
//! * [`min_hijack_exact`] — an exact branch-and-bound over the glue-aware
//!   AND/OR resolution semantics ([`crate::usable`]), branching on
//!   resolution witnesses. The tests `shared_provider_collapses_cut_to_one`
//!   and `exact_never_exceeds_flattened` compare the two.
//!
//! # The flattened cut
//!
//! The delegation graph of a name joins a trusted source (the root
//! hints), the closure's servers and a sink (the name): along the chain of
//! every name in the closure, the source, each zone's NS set and the
//! name's own node are joined pairwise in full. A vertex cut blocks every
//! root→sink path. The dev-only `perils-oracle` crate builds that graph as
//! an object; tests hold this kernel to that graph's minimum vertex cut.
//!
//! The product builds no graph. One walk, `wire_hub_network`, fills a
//! per-thread [`FlowNetwork`] in which every server is an in/out pair
//! joined by an edge of its removal cost, and every `NS(parent) × NS(zone)`
//! product is replaced by one *hub* per zone — each server of a layer
//! drains into its zone's hub, and the hub feeds the servers of every
//! layer below and the endpoint of every chain that ends there
//! (`|parent| + |zone|` edges where the product has `|parent| · |zone|`).
//! The zones above a zone `z` on a chain are the registered ancestors of
//! `z`'s origin whichever name the chain belongs to, so the hub a chain
//! holds once past `z` is a function of `z` alone: the walk wires each
//! closure zone once and every later visit is a lookup. A server's chain
//! is read off the universe's parent links
//! ([`Universe::server_chain_into`]), which are heap tables on every
//! snapshot backend, so the walk reads nothing from the dependency index.
//!
//! Why the reported set is the same. Hubs preserve the set of source→sink
//! server paths — `u → hub → v` exists exactly where `u → v` did, save for
//! `u → hub → u`, a cycle no simple path uses — and a hub has no finite
//! edge, so it is never in a finite cut: both networks have the same
//! finite cuts, sets of servers. The residual source side is the same for
//! every maximum flow (the smallest source side of any minimum cut), so
//! the servers whose split edge leaves it do not depend on edge order or
//! augmentation order either.
//!
//! Why a hub edge may carry [`INF`] rather than "infinity". A root server
//! costs `INF / 2`, so thirteen of them push more than `INF` into one hub
//! and its edges saturate. A finite cut weighs less than `INF / 2`
//! (closures hold far fewer than `INF / 2 / SIZE_WEIGHT` servers); below
//! that flow no `INF` edge is full and the network is the uncapacitated
//! one, at or above it the answer is `None` whatever the exact value.
//!
//! # The choke-point witness
//!
//! [`choke_witness`] proves a one-server cut with a root→target path
//! through it, read off the same wiring by breadth-first search over the
//! added edges, with no max-flow run. Hubs preserve the delegation graph's
//! edges, so its shortest paths are the graph's; of those, the witness is
//! the least by server id (the least path to the choke, then the least on
//! to the target), so it depends on no adjacency order.
//!
//! # The exact search
//!
//! The search runs on the closure's restricted [`Frame`], built once per
//! name; a node is a blocked set, held as one flag per frame server, and
//! costs one allocation-free [`Frame::solve`]. If the target no longer
//! resolves the node is a complete hijack. Otherwise the solve yields a
//! witness `w_0..w_k` (ordered vulnerable first, then by id; root servers
//! cannot be compromised and are left out), and the node branches
//! **canonically**: branch `i` blocks `w_i` and forbids its whole subtree
//! from ever blocking `w_0..w_{i-1}`.
//!
//! This loses no hijack. Let `H` be a complete hijack that contains the
//! node's blocked set and none of its forbidden servers. The witness's
//! survival alone keeps the name resolving, so `H` contains some `w_j`;
//! take the least such `j`. Then `H` contains the blocked set of branch
//! `j` and none of `w_0..w_{j-1}`, so it lies in that branch — and in no
//! other: a branch before `j` blocks a server `H` lacks, a branch after
//! `j` forbids `w_j`. By induction from the root (nothing blocked, only
//! root servers forbidden) every hijack is reached exactly once, where
//! branching on every member without the forbidden set would reach a
//! hijack of `n` servers through up to `n!` orderings. Pruning nodes whose
//! (size, safe) objective is no better than the best found keeps the
//! minimum, since children only grow the objective.

use crate::closure::{ClosureView, DependencyIndex};
use crate::universe::{ServerId, Universe, ZoneId};
use crate::usable::{Frame, Scratch};
use perils_graph::flow::{FlowNetwork, INF};
use std::cell::RefCell;

/// Weight base for the lexicographic (size, safe-count) objective.
const SIZE_WEIGHT: u64 = 1_000_000;

/// A set of servers whose compromise completely hijacks a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HijackSet {
    /// The servers, ascending by id.
    pub servers: Vec<ServerId>,
    /// Number of members with no known vulnerability ("safe bottlenecks",
    /// the quantity of Figure 7).
    pub safe_members: usize,
}

impl HijackSet {
    /// Cut size.
    pub fn size(&self) -> usize {
        self.servers.len()
    }

    /// Whether every member has a known vulnerability — the names the
    /// paper counts as completely hijackable with scripted exploits (30%
    /// of the namespace).
    pub fn fully_vulnerable(&self) -> bool {
        self.safe_members == 0
    }

    fn of(universe: &Universe, servers: Vec<ServerId>) -> HijackSet {
        let safe_members = servers
            .iter()
            .filter(|&&s| !universe.server(s).vulnerable)
            .count();
        HijackSet {
            servers,
            safe_members,
        }
    }
}

/// The paper's method: minimum vertex cut of the flattened delegation
/// graph, lexicographically minimizing (size, #safe members), computed as
/// the module docs' "The flattened cut" describes. The view (and with it
/// the delegation graph) is a pure function of the target's deepest zone,
/// so the survey engine runs [`crate::MinCutMetric`] once per deepest
/// zone, not once per name. `_index` is unused (server chains come from
/// the universe's parent links); it stays until its callers, the
/// benchmark's replay among them, drop it.
pub fn min_cut_flattened_view(
    universe: &Universe,
    _index: &DependencyIndex,
    view: &ClosureView<'_>,
) -> Option<HijackSet> {
    CUT_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        wire_hub_network(universe, view, scratch);
        let net = &mut scratch.net;
        if net.max_flow(SOURCE, SINK) >= INF / 2 {
            return None; // only cuttable through out-of-model nodes
        }
        // The split edge crosses the cut: in-node on the source side,
        // out-node on the sink side.
        let cut = view
            .servers()
            .enumerate()
            .filter(|&(rank, _)| net.source_side(node_in(rank)) && !net.source_side(node_out(rank)))
            .map(|(_, sid)| sid)
            .collect();
        Some(HijackSet::of(universe, cut))
    })
}

/// The witness of a one-server cut (module docs, "The choke-point
/// witness"): the least shortest root→target path through `choke`, as its
/// servers in resolution order, `choke` included. Empty when `choke` is
/// not a closure server or no root→target path runs through it.
pub fn choke_witness(
    universe: &Universe,
    view: &ClosureView<'_>,
    choke: ServerId,
) -> Vec<ServerId> {
    let (servers, _) = view.id_lists();
    let Ok(rank) = servers.binary_search(&choke.0) else {
        return Vec::new();
    };
    CUT_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        wire_hub_network(universe, view, scratch);
        let net = &scratch.net;
        let (Some(head), Some(tail)) = (
            least_shortest_path(net, SOURCE, node_in(rank)),
            least_shortest_path(net, node_in(rank), SINK),
        ) else {
            return Vec::new();
        };
        head.into_iter()
            .chain(tail.into_iter().skip(1))
            .filter(|&stop| stop != SOURCE && stop != SINK)
            .map(|stop| ServerId(servers[(stop - 2) / 2]))
            .collect()
    })
}

/// Flow-network node ids of the flattened cut: the source, the sink, then
/// an in/out pair per closure server by rank; hubs follow as they are
/// wired.
const SOURCE: usize = 0;
const SINK: usize = 1;

fn node_in(rank: usize) -> usize {
    2 + 2 * rank
}

fn node_out(rank: usize) -> usize {
    3 + 2 * rank
}

/// What one thread's cuts reuse: buffers only, overwritten by every call.
/// No result is kept — ids mean something else once a daemon swaps worlds.
#[derive(Default)]
struct CutScratch {
    net: FlowNetwork,
    /// Per closure zone (by rank in the closure's ascending zone list):
    /// the hub a chain holds after passing it, once known — the zone's own
    /// hub, or its predecessor's when none of its NS is a closure server.
    after: Vec<Option<usize>>,
    /// The chain of the closure server being wired.
    chain: Vec<ZoneId>,
}

thread_local! {
    static CUT_SCRATCH: RefCell<CutScratch> = RefCell::default();
}

/// Wires `scratch.net` as the hub network of `view` (module docs, "The
/// flattened cut"): the split edge of every closure server with its
/// removal cost, then the target's chain and the chain of every closure
/// server in ascending id order. Closure ranks are the local ids, found
/// by binary search so that nothing here is sized by the universe.
fn wire_hub_network(universe: &Universe, view: &ClosureView<'_>, scratch: &mut CutScratch) {
    let (servers, zones) = view.id_lists();
    let CutScratch { net, after, chain } = scratch;
    net.clear();
    net.add_nodes(2 + 2 * servers.len());
    for (rank, &sid) in servers.iter().enumerate() {
        let server = universe.server(ServerId(sid));
        let cost = if server.is_root {
            // Root servers are out of the threat model.
            INF / 2
        } else if server.vulnerable {
            SIZE_WEIGHT
        } else {
            SIZE_WEIGHT + 1
        };
        net.add_edge(node_in(rank), node_out(rank), cost);
    }
    after.clear();
    after.resize(zones.len(), None);
    let mut wire_chain = |chain_zones: &[ZoneId], end: usize| {
        let mut prev = SOURCE;
        for &zid in chain_zones {
            // A built index puts every chain zone in the closure's
            // `zones`, but a loaded archive's zone sets are checked for
            // bounds, not content: a forged one can leave a chain zone
            // out. Such a zone is wired on every visit — the network
            // tolerates repeated edges — rather than panic.
            let slot = zones.binary_search(&zid.0).ok();
            if let Some(known) = slot.and_then(|z| after[z]) {
                prev = known;
                continue;
            }
            let mut hub = None;
            let members = universe.zone(zid).ns.iter();
            for rank in members.filter_map(|ns| servers.binary_search(&ns.0).ok()) {
                let hub = *hub.get_or_insert_with(|| net.add_node());
                net.add_edge(prev, node_in(rank), INF);
                net.add_edge(node_out(rank), hub, INF);
            }
            prev = hub.unwrap_or(prev);
            if let Some(z) = slot {
                after[z] = Some(prev);
            }
        }
        net.add_edge(prev, end, INF);
    };
    wire_chain(view.target_chain(), SINK);
    for (rank, &sid) in servers.iter().enumerate() {
        universe.server_chain_into(ServerId(sid), chain);
        wire_chain(chain, node_in(rank));
    }
}

/// The least shortest path of *stops* (the source, the sink, server
/// in-nodes) from `from` to `to`, both included; `None` when unreachable.
/// A step is one delegation graph edge: from a stop, through its split
/// edge and hubs, to every stop they feed. Each stop's next stops are
/// queued in ascending id (ids ascend with server ids), so first
/// discovery yields the least path.
fn least_shortest_path(net: &FlowNetwork, from: usize, to: usize) -> Option<Vec<usize>> {
    let mut parent = vec![usize::MAX; net.node_count()];
    parent[from] = from;
    let mut queue = vec![from];
    let (mut next, mut at) = (Vec::new(), 0);
    while parent[to] == usize::MAX {
        let stop = *queue.get(at)?;
        at += 1;
        next.clear();
        if stop == SOURCE {
            next.extend(net.successors(SOURCE));
        } else {
            let hubs = net.successors(stop).flat_map(|out| net.successors(out));
            next.extend(hubs.flat_map(|hub| net.successors(hub)));
        }
        next.sort_unstable();
        for &stop_next in &next {
            if parent[stop_next] == usize::MAX {
                parent[stop_next] = stop;
                queue.push(stop_next);
            }
        }
    }
    let mut path = vec![to];
    while path[path.len() - 1] != from {
        path.push(parent[path[path.len() - 1]]);
    }
    path.reverse();
    Some(path)
}

/// Exact minimum complete-hijack set under the glue-aware resolution
/// semantics, lexicographically minimizing (size, #safe members).
///
/// Branch-and-bound on the closure's restricted [`Frame`] (module docs):
/// at each node, solve clean reachability under the current blocked set;
/// if the target still resolves, extract a resolution witness and branch
/// on blocking each member.
pub fn min_hijack_exact(universe: &Universe, closure: &ClosureView<'_>) -> Option<HijackSet> {
    let mut search = ExactSearch::new(universe, closure);
    search.visit(0);
    let (mut servers, (_, safe_members)) = search.best?;
    servers.sort_unstable();
    Some(HijackSet {
        servers: servers
            .into_iter()
            .map(|s| search.frame.server_id(s as usize))
            .collect(),
        safe_members,
    })
}

/// The state of one exact search; servers are local ids of `frame`.
struct ExactSearch {
    frame: Frame,
    /// The target's deepest zone in the frame (`None`: it has no zone, so
    /// it never resolves and the empty set hijacks it).
    target: Option<usize>,
    vulnerable: Vec<bool>,
    blocked: Vec<bool>,
    /// Servers the current subtree may not block: root servers (out of the
    /// threat model) throughout, and the earlier siblings of every branch
    /// taken on the way down.
    never_block: Vec<bool>,
    /// The blocked servers, in the order they were blocked.
    chosen: Vec<u32>,
    /// The witnesses of the nodes on the current path, one after another.
    members: Vec<u32>,
    witness: Vec<u32>,
    scratch: Scratch,
    /// The best complete hijack so far and its (size, safe) objective.
    best: Option<(Vec<u32>, (usize, usize))>,
    #[cfg(test)]
    nodes: usize,
}

impl ExactSearch {
    fn new(universe: &Universe, closure: &ClosureView<'_>) -> ExactSearch {
        let frame = Frame::restricted(universe, closure.zones(), closure.servers());
        let entry = |s| universe.server(frame.server_id(s));
        let servers = frame.server_count();
        ExactSearch {
            target: frame.enclosing_zone(universe, closure.target()),
            vulnerable: (0..servers).map(|s| entry(s).vulnerable).collect(),
            blocked: vec![false; servers],
            never_block: (0..servers).map(|s| entry(s).is_root).collect(),
            chosen: Vec::new(),
            members: Vec::new(),
            witness: Vec::new(),
            scratch: Scratch::default(),
            best: None,
            #[cfg(test)]
            nodes: 0,
            frame,
        }
    }

    /// Searches below the node whose blocked set is `chosen`, `safe` of
    /// them not vulnerable.
    fn visit(&mut self, safe: usize) {
        #[cfg(test)]
        {
            self.nodes += 1;
        }
        let obj = (self.chosen.len(), safe);
        // Children only grow the objective, so an already-not-better node
        // cannot lead to an improvement.
        if matches!(&self.best, Some((_, best_obj)) if obj >= *best_obj) {
            return;
        }
        self.frame.solve(&self.blocked, &mut self.scratch);
        let resolves = self.target.is_some_and(|zone| {
            self.frame
                .witness_into(&mut self.scratch, zone, &mut self.witness)
        });
        if !resolves {
            // Hijacked, and better than the best so far.
            self.best = Some((self.chosen.clone(), obj));
            return;
        }
        // Some witness member must be blocked. Vulnerable members first —
        // they are lexicographically cheaper. A witness with no member
        // left to block is a dead end.
        let start = self.members.len();
        let never_block = &self.never_block;
        self.members
            .extend(self.witness.iter().filter(|&&s| !never_block[s as usize]));
        let vulnerable = &self.vulnerable;
        self.members[start..].sort_unstable_by_key(|&s| (!vulnerable[s as usize], s));
        // Canonical branching: branch `i` blocks member `i` and may never
        // block the members before it.
        for at in start..self.members.len() {
            let server = self.members[at] as usize;
            self.blocked[server] = true;
            self.chosen.push(server as u32);
            self.visit(safe + usize::from(!self.vulnerable[server]));
            self.chosen.pop();
            self.blocked[server] = false;
            self.never_block[server] = true;
        }
        for &server in &self.members[start..] {
            self.never_block[server as usize] = false;
        }
        self.members.truncate(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::DependencyIndex;
    use crate::universe::Universe;
    use crate::usable::Reachability;
    use perils_dns::name::{name, DnsName};
    use std::collections::BTreeSet;

    /// A universe where the exact minimum is obvious: the target zone has
    /// two servers, one of which shares a provider with the other.
    fn simple() -> Universe {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("tld1.nst.com"), name("tld2.nst.com")]);
        b.add_zone(
            &name("nst.com"),
            &[name("tld1.nst.com"), name("tld2.nst.com")],
        );
        b.add_zone(
            &name("example.com"),
            &[name("ns1.example.com"), name("ns2.example.com")],
        );
        b.finish()
    }

    #[test]
    fn own_ns_pair_is_the_min_cut() {
        let u = simple();
        let index = DependencyIndex::build(&u);
        let target = name("www.example.com");
        let mut ws = index.workspace();
        let closure = index.closure_view(&u, &target, &mut ws);
        let exact = min_hijack_exact(&u, &closure).expect("hijackable");
        let flat = min_cut_flattened_view(&u, &index, &closure).expect("cuttable");
        assert_eq!(exact.size(), 2, "exact: {:?}", exact);
        assert_eq!(flat.size(), 2, "flattened: {:?}", flat);
        // Two minimum cuts exist ({ns1,ns2} and {tld1,tld2}); whichever is
        // returned must be one of them.
        let names: Vec<String> = exact
            .servers
            .iter()
            .map(|&s| u.server(s).name.to_string())
            .collect();
        let own = ["ns1.example.com".to_string(), "ns2.example.com".to_string()];
        let tld = ["tld1.nst.com".to_string(), "tld2.nst.com".to_string()];
        assert!(
            own.iter().all(|n| names.contains(n)) || tld.iter().all(|n| names.contains(n)),
            "{names:?}"
        );
    }

    /// Single shared provider: min hijack is one machine even though the
    /// zone lists two NS.
    #[test]
    fn shared_provider_collapses_cut_to_one() {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("a.root-servers.net")]);
        b.add_zone(&name("net"), &[name("a.root-servers.net")]);
        // victim.com has two NS, both inside provider.net, which is served
        // by the single box ns.provider.net.
        b.add_zone(
            &name("victim.com"),
            &[name("ns1.provider.net"), name("ns2.provider.net")],
        );
        b.add_zone(&name("provider.net"), &[name("ns.provider.net")]);
        let u = b.finish();
        let index = DependencyIndex::build(&u);
        let target = name("www.victim.com");
        let mut ws = index.workspace();
        let closure = index.closure_view(&u, &target, &mut ws);
        let exact = min_hijack_exact(&u, &closure).expect("hijackable");
        assert_eq!(exact.size(), 1, "{exact:?}");
        assert_eq!(u.server(exact.servers[0]).name, name("ns.provider.net"));
        // The flattened referral-path graph cannot see the shared-provider
        // collapse: it reports the name's own NS pair (size 2). This is
        // exactly the approximation gap between the two methods — the
        // exact AND/OR minimum is never larger.
        let flat = min_cut_flattened_view(&u, &index, &closure).expect("cuttable");
        assert_eq!(flat.size(), 2);
        assert!(exact.size() <= flat.size());
    }

    /// Glue protects self-hosted zones from upstream collapse: the exact
    /// analysis must not require cutting the provider when the target's
    /// own servers are in-bailiwick.
    #[test]
    fn glue_respected_by_exact_analysis() {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("a.root-servers.net")]);
        b.add_zone(
            &name("selfhosted.com"),
            &[name("ns1.selfhosted.com"), name("ns2.selfhosted.com")],
        );
        let u = b.finish();
        let index = DependencyIndex::build(&u);
        let target = name("www.selfhosted.com");
        let mut ws = index.workspace();
        let closure = index.closure_view(&u, &target, &mut ws);
        let exact = min_hijack_exact(&u, &closure).expect("hijackable");
        assert_eq!(exact.size(), 2, "must compromise both glued servers");
    }

    #[test]
    fn safe_member_counting_lexicographic() {
        // Two parallel one-server paths feed the target zone... rather:
        // target zone has 2 NS; one vulnerable, one safe.
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.raw_server(&name("vuln.example.com"), true, false);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("a.root-servers.net")]);
        b.add_zone(
            &name("example.com"),
            &[name("vuln.example.com"), name("safe.example.com")],
        );
        let u = b.finish();
        let index = DependencyIndex::build(&u);
        let target = name("www.example.com");
        let mut ws = index.workspace();
        let closure = index.closure_view(&u, &target, &mut ws);
        let exact = min_hijack_exact(&u, &closure).unwrap();
        assert_eq!(exact.size(), 2);
        assert_eq!(exact.safe_members, 1, "one member is safe");
        assert!(!exact.fully_vulnerable());
        let flat = min_cut_flattened_view(&u, &index, &closure).unwrap();
        assert_eq!(flat.safe_members, 1);
    }

    #[test]
    fn prefers_vulnerable_cut_of_equal_size() {
        // The target zone is reachable via two disjoint single-server
        // provider paths... simpler: two NS for the target; two more NS
        // candidates would make cut 2 either way; craft: target zone
        // 1 NS (glueless in provider A); provider A zone has 2 NS: one
        // vulnerable box and one safe box. Min cut: either {target NS}? no
        // — target NS itself is one server: cut size 1. Make target NS
        // vulnerable...
        //
        // Direct check instead: equal-size cuts exist — {vuln1} and
        // {safe1} both cut; the analysis must report the vulnerable one.
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.raw_server(&name("ns.vulnprovider.net"), true, false);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("a.root-servers.net")]);
        b.add_zone(&name("net"), &[name("a.root-servers.net")]);
        // victim's single NS lives under vulnprovider.net (vulnerable box),
        // so cutting either the NS (safe) or the provider box (vulnerable)
        // works. Sizes equal; safe-count differs.
        b.add_zone(&name("victim.com"), &[name("ns1.vulnprovider.net")]);
        b.add_zone(&name("vulnprovider.net"), &[name("ns.vulnprovider.net")]);
        let u = b.finish();
        let index = DependencyIndex::build(&u);
        let target = name("www.victim.com");
        let mut ws = index.workspace();
        let closure = index.closure_view(&u, &target, &mut ws);
        let exact = min_hijack_exact(&u, &closure).unwrap();
        assert_eq!(exact.size(), 1);
        assert_eq!(
            exact.safe_members, 0,
            "the vulnerable provider box wins: {exact:?}"
        );
        // The flattened graph only sees the referral path through the
        // (safe) NS host itself, so its cut is the safe box: one more case
        // where the exact semantics find a strictly better attack.
        let flat = min_cut_flattened_view(&u, &index, &closure).unwrap();
        assert_eq!(flat.size(), 1);
        assert_eq!(flat.safe_members, 1);
    }

    #[test]
    fn root_served_zone_cannot_be_hijacked() {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("arpa"), &[name("a.root-servers.net")]);
        let u = b.finish();
        let index = DependencyIndex::build(&u);
        let target = name("x.arpa");
        let mut ws = index.workspace();
        let closure = index.closure_view(&u, &target, &mut ws);
        assert!(min_hijack_exact(&u, &closure).is_none());
        assert!(min_cut_flattened_view(&u, &index, &closure).is_none());
    }

    /// A non-root zone on all thirteen root servers: `13 × INF / 2` meets
    /// hub edges of capacity `INF`, which saturate (module docs, "The
    /// flattened cut") — the verdict is `None` all the same, and a debug
    /// build sees no overflow.
    #[test]
    fn zone_on_thirteen_root_servers_is_uncuttable() {
        let roots: Vec<DnsName> = ('a'..='m')
            .map(|letter| name(&format!("{letter}.root-servers.net")))
            .collect();
        let mut b = Universe::builder();
        for root in &roots {
            b.raw_server(root, false, true);
        }
        b.add_zone(&DnsName::root(), &roots);
        b.add_zone(&name("arpa"), &roots);
        b.add_zone(&name("in-addr.arpa"), &[name("ns.in-addr.arpa")]);
        let u = b.finish();
        let index = DependencyIndex::build(&u);
        let target = name("x.arpa");
        let mut ws = index.workspace();
        let closure = index.closure_view(&u, &target, &mut ws);
        assert_eq!(closure.server_count(), 13);
        assert!(min_cut_flattened_view(&u, &index, &closure).is_none());
        // Below the root-served layer a finite cut exists again.
        let target = name("1.in-addr.arpa");
        let closure = index.closure_view(&u, &target, &mut ws);
        let cut = min_cut_flattened_view(&u, &index, &closure).expect("cuttable");
        assert_eq!(
            cut.servers,
            [u.server_id(&name("ns.in-addr.arpa")).unwrap()]
        );
    }

    /// `com` and `example.com` each have four glued servers, so every
    /// witness is `{next tld, next ns}` and the optimum takes four servers.
    /// Canonical branching visits each blocked set `tld^i ns^j`, `i + j ≤
    /// 4`, once; branching on both members everywhere would reach the same
    /// sets along every interleaving, 31 nodes.
    #[test]
    fn canonical_branching_visits_each_blocked_set_once() {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        let tld: Vec<DnsName> = (1..=4).map(|i| name(&format!("tld{i}.nst.com"))).collect();
        b.add_zone(&name("com"), &tld);
        b.add_zone(&name("nst.com"), &tld);
        let ns: Vec<DnsName> = (1..=4)
            .map(|i| name(&format!("ns{i}.example.com")))
            .collect();
        b.add_zone(&name("example.com"), &ns);
        let u = b.finish();
        let index = DependencyIndex::build(&u);
        let target = name("www.example.com");
        let mut ws = index.workspace();
        let closure = index.closure_view(&u, &target, &mut ws);

        let mut search = ExactSearch::new(&u, &closure);
        search.visit(0);
        let (_, objective) = search.best.clone().expect("hijackable");
        assert_eq!(objective, (4, 4));
        assert_eq!(search.nodes, 15);
        let orderings: usize = (1..=4).map(|k| (1..=k).product::<usize>()).sum();
        assert!(
            search.nodes < orderings,
            "{} vs Σ k! = {orderings}",
            search.nodes
        );
        assert_eq!(
            min_hijack_exact(&u, &closure).expect("hijackable").size(),
            4
        );
    }

    /// `victim.com` lists `x.z.net` (address via `z.net`) and `ns1.z.net`,
    /// so the first witness is `{ns1, x}`. The branch that blocks `x` may
    /// not block `ns1`, and there `ns1` alone is the witness: nothing is
    /// left to block, and the node must not be taken for a hijack by `{x}`.
    #[test]
    fn witness_of_never_block_servers_is_a_dead_end() {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("a.root-servers.net")]);
        b.add_zone(&name("net"), &[name("a.root-servers.net")]);
        b.add_zone(&name("z.net"), &[name("ns1.z.net"), name("ns2.z.net")]);
        b.add_zone(&name("victim.com"), &[name("x.z.net"), name("ns1.z.net")]);
        let u = b.finish();
        let index = DependencyIndex::build(&u);
        let target = name("www.victim.com");
        let mut ws = index.workspace();
        let closure = index.closure_view(&u, &target, &mut ws);
        let exact = min_hijack_exact(&u, &closure).expect("hijackable");
        assert_eq!(exact.size(), 2, "{exact:?}");
        assert!(exact
            .servers
            .contains(&u.server_id(&name("ns1.z.net")).unwrap()));
    }

    #[test]
    fn exact_never_exceeds_flattened() {
        // The flattened graph admits paths that ignore glue constraints...
        // and conversely blocks paths the AND/OR semantics would allow; on
        // these small cases the exact minimum is never larger than a valid
        // flattened cut that also satisfies the semantics. We check the
        // weaker, always-true property: both methods' cuts actually hijack
        // under the exact semantics, solved over the whole universe (a
        // closure is NS-complete, so nothing outside it matters).
        for u in [simple()] {
            let index = DependencyIndex::build(&u);
            let target = name("www.example.com");
            let mut ws = index.workspace();
            let closure = index.closure_view(&u, &target, &mut ws);
            for set in [
                min_hijack_exact(&u, &closure),
                min_cut_flattened_view(&u, &index, &closure),
            ]
            .into_iter()
            .flatten()
            {
                let blocked: BTreeSet<ServerId> = set.servers.iter().copied().collect();
                let r = Reachability::compute(&u, &blocked);
                assert!(
                    !r.name_resolves(&u, &name("www.example.com")),
                    "cut {set:?} fails to hijack"
                );
            }
        }
    }
}
