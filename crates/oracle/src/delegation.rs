//! The flattened delegation graph of one name — the structure the paper
//! computes min-cuts of — as a graph object: a source (the root hints),
//! a sink (the name) and the closure's servers, joined along the chain of
//! every name in the closure (the target and each nameserver name). A
//! vertex cut must block every root→sink path: the paper's "critical
//! bottleneck nameservers". The product wires a hub network instead
//! (`perils_core::hijack`); this build shares nothing with that wiring.

use crate::digraph::{DiGraph, NodeId};
use perils_core::closure::ClosureView;
use perils_core::universe::{ServerId, Universe};

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
    /// `2 + r`, so node ids ascend with server ids.
    servers: Vec<ServerId>,
}

impl DelegationGraph {
    /// Builds the graph for `closure`: each chain, looked up by name, is a
    /// sequence of layers — a chain zone's NS servers, zones with none
    /// skipped — and every adjacent pair of source, layers and endpoint
    /// is joined by its full product (self-edges dropped).
    pub fn build(universe: &Universe, closure: &ClosureView<'_>) -> DelegationGraph {
        let mut graph = DiGraph::new();
        let source = graph.add_node(DelegationNode::Source);
        let sink = graph.add_node(DelegationNode::Target);
        for sid in closure.servers() {
            graph.add_node(DelegationNode::Server(sid));
        }
        let mut dg = DelegationGraph {
            graph,
            source,
            sink,
            servers: closure.servers().collect(),
        };
        let mut chains = vec![(closure.target().clone(), sink)];
        for (node, &sid) in dg.graph.nodes().skip(2).zip(&dg.servers) {
            chains.push((universe.server(sid).name.clone(), node));
        }
        for (name, end) in chains {
            let mut prev = vec![source];
            for zid in universe.chain_zones(&name) {
                let layer: Vec<NodeId> = universe
                    .zone(zid)
                    .ns
                    .iter()
                    .filter_map(|&ns| dg.node_of(ns))
                    .collect();
                if !layer.is_empty() {
                    dg.join(&prev, &layer);
                    prev = layer;
                }
            }
            dg.join(&prev, &[end]);
        }
        dg
    }

    /// Adds every edge of `from × to` but self-edges, once.
    fn join(&mut self, from: &[NodeId], to: &[NodeId]) {
        for &u in from {
            for &v in to {
                if u != v {
                    self.graph.add_edge_dedup(u, v);
                }
            }
        }
    }

    /// The node for `server`, if it is in the graph.
    pub fn node_of(&self, server: ServerId) -> Option<NodeId> {
        let rank = self.servers.binary_search(&server).ok()?;
        Some(NodeId(2 + rank as u32))
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
    /// target as boxes. Edges are listed sorted, so the bytes do not
    /// depend on the order the build added them in.
    pub fn to_dot(&self, universe: &Universe, title: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("digraph \"{title}\" {{\n  rankdir=LR;\n"));
        out.push_str("  source [shape=box, label=\"root\"];\n");
        out.push_str(&format!("  target [shape=box, label=\"{title}\"];\n"));
        for node in self.graph.nodes() {
            let Some(sid) = self.server_of(node) else {
                continue;
            };
            let server = universe.server(sid);
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
    use crate::traversal::reachable_from;
    use perils_core::closure::DependencyIndex;
    use perils_dns::name::{name, DnsName};

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
        let target = name("www.example.com");
        let mut ws = index.workspace();
        let closure = index.closure_view(&u, &target, &mut ws);
        let dg = DelegationGraph::build(&u, &closure);

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
        let target = name("www.example.com");
        let mut ws = index.workspace();
        let closure = index.closure_view(&u, &target, &mut ws);
        let dg = DelegationGraph::build(&u, &closure);
        // ns.nstld.com controls the address of a.gtld.nstld.com: the com
        // server's node must be fed by the nstld.com layer.
        let nstld_ns = u.server_id(&name("ns.nstld.com")).unwrap();
        let com_server = u.server_id(&name("a.gtld.nstld.com")).unwrap();
        let nstld_node = dg.node_of(nstld_ns).unwrap();
        let com_node = dg.node_of(com_server).unwrap();
        assert!(dg.graph.out_neighbors(nstld_node).contains(&com_node));
    }

    #[test]
    fn node_server_round_trip() {
        let u = chain_universe();
        let index = DependencyIndex::build(&u);
        let target = name("www.example.com");
        let mut ws = index.workspace();
        let closure = index.closure_view(&u, &target, &mut ws);
        let dg = DelegationGraph::build(&u, &closure);
        for sid in closure.servers() {
            let node = dg.node_of(sid).unwrap();
            assert_eq!(dg.server_of(node), Some(sid));
        }
        assert_eq!(dg.server_of(dg.source), None);
        assert_eq!(dg.server_of(dg.sink), None);
        assert_eq!(dg.server_count(), closure.server_count());
    }
}
