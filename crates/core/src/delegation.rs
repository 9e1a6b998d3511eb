//! The flattened delegation graph — the structure the paper computes
//! min-cuts of.
//!
//! Nodes are the closure's nameservers plus a trusted `source` (standing
//! for the root servers / root hints) and a `sink` (the target name).
//! For every name in the closure (the target and each nameserver name),
//! its delegation chain contributes layered edges: each server of zone
//! `z_i` points to each server of zone `z_{i+1}`, the source points to the
//! first layer, and the final layer points at the name's node (the sink
//! for the target, the server's own node for a nameserver name).
//!
//! A root→sink path therefore traverses one server per zone level of some
//! chain, and a vertex cut must block *every* such path — the paper's
//! "critical bottleneck nameservers".
//!
//! # One walk, each zone wired once
//!
//! `walk_layers` is the only place that relation is spelled out. It
//! visits the target's chain, then the chain of every closure server in
//! ascending id order, and hands a `LayerSink` one `wire` per closure
//! zone and one `finish` per chain. The zones above a zone `z` on a chain
//! are the registered ancestors of `z`'s origin whichever name the chain
//! belongs to, so the layer that precedes `z`'s is a function of `z` alone
//! and wiring it again could only repeat edges: the walk remembers, per
//! closure zone, the layer a chain holds once it is past that zone, and
//! every later visit is a lookup. A server's chain is read off the
//! universe's parent links — its home zone, that zone's parent, and so on
//! below the root ([`Universe::server_chain_into`]) — which are heap
//! tables on every snapshot backend, so the walk reads nothing from the
//! dependency index. [`DelegationGraph`] materialises the edges; the
//! min-cut kernel in [`crate::hijack`] feeds them to a flow network
//! without building a graph.

use crate::closure::{ClosureView, DependencyIndex, NameClosure};
use crate::universe::{ServerId, Universe, ZoneId};
use perils_graph::digraph::{DiGraph, NodeId};

/// Where a chain ends.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Endpoint {
    /// The target's own chain: the sink.
    Target,
    /// The chain of the closure server of this rank (position in the
    /// closure's ascending server list).
    Server(u32),
}

/// The consumer of [`walk_layers`]. `Layer` names a set of servers a chain
/// has just passed: the source, or the NS set of a wired zone.
pub(crate) trait LayerSink {
    /// Handle of a wired layer.
    type Layer: Copy;
    /// The layer every chain starts from.
    fn source(&self) -> Self::Layer;
    /// Adds `prev × members` (no self-edges) and returns the handle of the
    /// new layer. `members` are server ranks in NS-set order, never empty.
    fn wire(&mut self, prev: Self::Layer, members: &[u32]) -> Self::Layer;
    /// Adds `prev × {endpoint}` (no self-edge).
    fn finish(&mut self, prev: Self::Layer, endpoint: Endpoint);
}

/// Buffers of [`walk_layers`], reusable across closures.
#[derive(Debug)]
pub(crate) struct WalkScratch<L> {
    /// Per closure zone (by rank in the closure's ascending zone list):
    /// the layer a chain holds after passing it, once known — the zone's
    /// own layer, or its predecessor's when none of its NS is a closure
    /// server.
    after: Vec<Option<L>>,
    members: Vec<u32>,
    /// The chain of the closure server being walked.
    chain: Vec<ZoneId>,
}

impl<L> Default for WalkScratch<L> {
    fn default() -> Self {
        WalkScratch {
            after: Vec::new(),
            members: Vec::new(),
            chain: Vec::new(),
        }
    }
}

/// Feeds `sink` the flattened delegation graph of one closure (module
/// docs). `servers` and `zones` are the closure's ascending id lists;
/// ranks in them are the local ids the sink sees, found by binary search
/// so that nothing here is sized by the universe.
pub(crate) fn walk_layers<S: LayerSink>(
    universe: &Universe,
    target_chain: &[ZoneId],
    servers: &[u32],
    zones: &[u32],
    scratch: &mut WalkScratch<S::Layer>,
    sink: &mut S,
) {
    scratch.after.clear();
    scratch.after.resize(zones.len(), None);
    let mut chain = std::mem::take(&mut scratch.chain);
    let mut walk = Walk {
        universe,
        servers,
        zones,
        scratch,
        sink,
    };
    walk.chain(target_chain.iter().copied(), Endpoint::Target);
    for (rank, &sid) in servers.iter().enumerate() {
        universe.server_chain_into(ServerId(sid), &mut chain);
        walk.chain(chain.iter().copied(), Endpoint::Server(rank as u32));
    }
    scratch.chain = chain;
}

struct Walk<'a, S: LayerSink> {
    universe: &'a Universe,
    servers: &'a [u32],
    zones: &'a [u32],
    scratch: &'a mut WalkScratch<S::Layer>,
    sink: &'a mut S,
}

impl<S: LayerSink> Walk<'_, S> {
    fn chain(&mut self, chain: impl Iterator<Item = ZoneId>, endpoint: Endpoint) {
        let mut prev = self.sink.source();
        for zid in chain {
            // A chain zone missing from `zones` (a hand-edited closure) is
            // wired on every visit; the sinks tolerate repeated edges.
            let slot = self.zones.binary_search(&zid.0).ok();
            if let Some(known) = slot.and_then(|z| self.scratch.after[z]) {
                prev = known;
                continue;
            }
            let servers = self.servers;
            let members = &mut self.scratch.members;
            members.clear();
            members.extend(
                self.universe
                    .zone(zid)
                    .ns
                    .iter()
                    .filter_map(|ns| servers.binary_search(&ns.0).ok())
                    .map(|rank| rank as u32),
            );
            if !members.is_empty() {
                prev = self.sink.wire(prev, members);
            }
            if let Some(z) = slot {
                self.scratch.after[z] = Some(prev);
            }
        }
        self.sink.finish(prev, endpoint);
    }
}

/// Node payload in the delegation graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelegationNode {
    /// The trusted resolution start (root servers, collapsed).
    Source,
    /// A nameserver.
    Server(ServerId),
    /// The target name.
    Target,
}

/// The flattened delegation graph of one name.
#[derive(Debug, Clone)]
pub struct DelegationGraph {
    /// The graph; edges deduplicated.
    pub graph: DiGraph<DelegationNode>,
    /// The source node.
    pub source: NodeId,
    /// The sink (target) node.
    pub sink: NodeId,
    /// The closure's servers, ascending; the server of rank `r` is node
    /// `server_node(r)`.
    servers: Vec<u32>,
}

/// The node of the closure server of rank `rank`; the source and the sink
/// come before.
fn server_node(rank: u32) -> NodeId {
    NodeId(2 + rank)
}

/// The [`LayerSink`] behind [`DelegationGraph`]: a layer is a range of
/// `layers`, edges go through `add_edge_dedup` in the order the walk
/// produces them, which fixes each node's adjacency order.
struct GraphSink {
    graph: DiGraph<DelegationNode>,
    sink: NodeId,
    /// Member nodes of every wired layer, back to back; the source's
    /// one-node layer first.
    layers: Vec<NodeId>,
}

impl GraphSink {
    /// `prev × {to}`. Adjacency lists are per node, so every out-list
    /// grows in NS-set order and every in-list in predecessor order
    /// whichever of the two loops is the outer one.
    fn fan_in(&mut self, prev: (u32, u32), to: NodeId) {
        for at in prev.0..prev.1 {
            let from = self.layers[at as usize];
            if from != to {
                self.graph.add_edge_dedup(from, to);
            }
        }
    }
}

impl LayerSink for GraphSink {
    type Layer = (u32, u32);

    fn source(&self) -> (u32, u32) {
        (0, 1)
    }

    fn wire(&mut self, prev: (u32, u32), members: &[u32]) -> (u32, u32) {
        let start = self.layers.len() as u32;
        self.layers
            .extend(members.iter().map(|&rank| server_node(rank)));
        let layer = (start, self.layers.len() as u32);
        for at in layer.0..layer.1 {
            self.fan_in(prev, self.layers[at as usize]);
        }
        layer
    }

    fn finish(&mut self, prev: (u32, u32), endpoint: Endpoint) {
        let to = match endpoint {
            Endpoint::Target => self.sink,
            Endpoint::Server(rank) => server_node(rank),
        };
        self.fan_in(prev, to);
    }
}

impl DelegationGraph {
    /// Builds the graph for `closure`. `_index` is unused (server chains
    /// come from the universe's parent links), kept until its callers drop it.
    pub fn build(
        universe: &Universe,
        _index: &DependencyIndex,
        closure: &NameClosure,
    ) -> DelegationGraph {
        let (servers, zones) = closure.id_lists();
        DelegationGraph::build_parts(universe, &closure.target_chain, servers, &zones)
    }

    /// [`DelegationGraph::build`] for a borrowed [`ClosureView`] — identical
    /// graph, no owned closure.
    pub fn build_view(
        universe: &Universe,
        _index: &DependencyIndex,
        view: &ClosureView<'_>,
    ) -> DelegationGraph {
        let (servers, zones) = view.id_lists();
        DelegationGraph::build_parts(universe, view.target_chain(), servers.to_vec(), zones)
    }

    /// The shared construction core over the closure's ascending id lists.
    fn build_parts(
        universe: &Universe,
        target_chain: &[ZoneId],
        servers: Vec<u32>,
        zones: &[u32],
    ) -> DelegationGraph {
        let mut graph: DiGraph<DelegationNode> = DiGraph::new();
        let source = graph.add_node(DelegationNode::Source);
        let sink = graph.add_node(DelegationNode::Target);
        for &sid in &servers {
            graph.add_node(DelegationNode::Server(ServerId(sid)));
        }
        let mut out = GraphSink {
            graph,
            sink,
            layers: vec![source],
        };
        walk_layers(
            universe,
            target_chain,
            &servers,
            zones,
            &mut WalkScratch::default(),
            &mut out,
        );
        DelegationGraph {
            graph: out.graph,
            source,
            sink,
            servers,
        }
    }

    /// The node for `server`, if it is in the graph.
    pub fn node_of(&self, server: ServerId) -> Option<NodeId> {
        let rank = self.servers.binary_search(&server.0).ok()?;
        Some(server_node(rank as u32))
    }

    /// The server behind `node`, if it is a server node.
    pub fn server_of(&self, node: NodeId) -> Option<ServerId> {
        match self.graph.weight(node) {
            DelegationNode::Server(sid) => Some(*sid),
            _ => None,
        }
    }

    /// Number of server nodes.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Renders the graph in Graphviz DOT format — a machine-readable
    /// Figure 1. Vulnerable servers are drawn in red; the source and
    /// target as boxes.
    pub fn to_dot(&self, universe: &Universe, title: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("digraph \"{title}\" {{\n  rankdir=LR;\n"));
        out.push_str("  source [shape=box, label=\"root\"];\n");
        out.push_str(&format!("  target [shape=box, label=\"{title}\"];\n"));
        for (rank, &sid) in self.servers.iter().enumerate() {
            let node = server_node(rank as u32);
            let server = universe.server(ServerId(sid));
            let color = if server.vulnerable {
                ", color=red, fontcolor=red"
            } else {
                ""
            };
            out.push_str(&format!(
                "  n{} [label=\"{}\"{color}];\n",
                node.index(),
                server.name
            ));
        }
        let label_of = |node: NodeId| -> String {
            if node == self.source {
                "source".to_string()
            } else if node == self.sink {
                "target".to_string()
            } else {
                format!("n{}", node.index())
            }
        };
        let mut edges: Vec<(NodeId, NodeId)> = self.graph.edges().collect();
        edges.sort();
        for (from, to) in edges {
            out.push_str(&format!("  {} -> {};\n", label_of(from), label_of(to)));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::DependencyIndex;
    use crate::universe::Universe;
    use perils_dns::name::{name, DnsName};
    use perils_graph::traversal::reachable_from;

    fn chain_universe() -> Universe {
        // root → com → example.com, each with one server; the com server's
        // name lives under nstld.com (a zone under com), mirroring the real
        // gtld-servers structure.
        let mut b = Universe::builder();
        b.add_zone(&DnsName::root(), &[]);
        b.add_zone(&name("com"), &[name("a.gtld.nstld.com")]);
        b.add_zone(&name("nstld.com"), &[name("ns.nstld.com")]);
        b.add_zone(
            &name("example.com"),
            &[name("ns1.example.com"), name("ns2.example.com")],
        );
        b.finish()
    }

    #[test]
    fn layered_structure() {
        let u = chain_universe();
        let index = DependencyIndex::build(&u);
        let closure = index.closure_for(&u, &name("www.example.com"));
        let dg = DelegationGraph::build(&u, &index, &closure);

        // Source reaches the sink.
        let reach = reachable_from(&dg.graph, dg.source);
        assert!(reach.contains(dg.sink.index()));

        // The com-layer server precedes the example-layer servers.
        let com_server = u.server_id(&name("a.gtld.nstld.com")).unwrap();
        let ns1 = u.server_id(&name("ns1.example.com")).unwrap();
        let com_node = dg.node_of(com_server).unwrap();
        let ns1_node = dg.node_of(ns1).unwrap();
        assert!(dg.graph.out_neighbors(com_node).contains(&ns1_node));
        // Source feeds the first layer.
        assert!(dg.graph.out_neighbors(dg.source).contains(&com_node));
        // Final layer feeds the sink.
        assert!(dg.graph.out_neighbors(ns1_node).contains(&dg.sink));
    }

    #[test]
    fn server_chains_terminate_at_server_nodes() {
        let u = chain_universe();
        let index = DependencyIndex::build(&u);
        let closure = index.closure_for(&u, &name("www.example.com"));
        let dg = DelegationGraph::build(&u, &index, &closure);
        // ns.nstld.com controls the address of a.gtld.nstld.com: the com
        // server's node must be fed by the nstld.com layer.
        let nstld_ns = u.server_id(&name("ns.nstld.com")).unwrap();
        let com_server = u.server_id(&name("a.gtld.nstld.com")).unwrap();
        let nstld_node = dg.node_of(nstld_ns).unwrap();
        let com_node = dg.node_of(com_server).unwrap();
        assert!(dg.graph.out_neighbors(nstld_node).contains(&com_node));
    }

    /// `NameClosure`'s fields are public: a closure whose `zones` misses a
    /// chain zone gives the walk nowhere to remember that zone, which is
    /// then wired on every visit — same graph, same cut. Struck here: a
    /// zone of the target's chain (`com`) and one only servers' chains
    /// pass (`nstld.com`); the edge list and the cut are pinned.
    #[test]
    fn chain_zone_missing_from_the_closure_is_rewired_per_visit() {
        let u = chain_universe();
        let index = DependencyIndex::build(&u);
        let full = index.closure_for(&u, &name("www.example.com"));
        let mut struck = full.clone();
        for origin in ["com", "nstld.com"] {
            assert!(struck.zones.remove(&u.zone_id(&name(origin)).unwrap()));
        }
        let a = DelegationGraph::build(&u, &index, &full);
        let b = DelegationGraph::build(&u, &index, &struck);
        assert!(a.graph.edges().eq(b.graph.edges()));
        let edges: Vec<String> = b
            .graph
            .edges()
            .map(|(x, y)| format!("{}>{}", x.0, y.0))
            .collect();
        assert_eq!(edges.join(" "), "0>2 2>4 2>5 2>3 3>2 4>1 4>5 5>1 5>4");
        let cut = crate::hijack::min_cut_flattened(&u, &index, &struck);
        assert_eq!(cut, crate::hijack::min_cut_flattened(&u, &index, &full));
        let com_ns = u.server_id(&name("a.gtld.nstld.com")).unwrap();
        assert_eq!(cut.expect("cuttable").servers, [com_ns]);
    }

    #[test]
    fn node_server_round_trip() {
        let u = chain_universe();
        let index = DependencyIndex::build(&u);
        let closure = index.closure_for(&u, &name("www.example.com"));
        let dg = DelegationGraph::build(&u, &index, &closure);
        for &sid in &closure.servers {
            let node = dg.node_of(sid).unwrap();
            assert_eq!(dg.server_of(node), Some(sid));
        }
        assert_eq!(dg.server_of(dg.source), None);
        assert_eq!(dg.server_of(dg.sink), None);
        assert_eq!(dg.server_count(), closure.servers.len());
    }
}
