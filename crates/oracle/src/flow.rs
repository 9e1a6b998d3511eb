//! The minimum s–t vertex cut of an arena graph, by the textbook node
//! splitting: every node `v` becomes `v_in → v_out` with capacity equal to
//! the cost of removing `v`, every edge an infinite-capacity arc, and the
//! saturated split edges leaving the residual source side of a maximum
//! flow are the cut (Menger's theorem). The product's hijack kernel wires
//! the same split network straight from a closure; tests compare the two.

use crate::digraph::{DiGraph, NodeId};
use perils_graph::flow::{FlowNetwork, INF};

/// The result of a minimum vertex cut computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexCut {
    /// Sum of weights of the cut vertices (the max-flow value).
    pub total_weight: u64,
    /// The cut vertices, ascending by id. Removing exactly these nodes
    /// disconnects every source→sink path.
    pub cut: Vec<NodeId>,
}

/// Computes a minimum-weight vertex cut separating `source` from `sink`.
///
/// `weight(v)` is the cost of removing node `v`; `source` and `sink`
/// themselves are never cut (they get infinite weight). Returns `None` when
/// no finite cut exists — i.e. there is a direct `source → sink` edge, or
/// `source == sink`.
///
/// In the delegation-graph application, `source` is the trusted root,
/// `sink` is the surveyed name, and weights encode attack cost (unit for
/// the plain min-cut of Figure 7; lexicographic weights for the
/// safe-bottleneck refinement).
pub fn min_vertex_cut<N>(
    graph: &DiGraph<N>,
    source: NodeId,
    sink: NodeId,
    mut weight: impl FnMut(NodeId) -> u64,
) -> Option<VertexCut> {
    if source == sink {
        return None;
    }
    let n = graph.node_count();
    // Node v splits into in-node 2v and out-node 2v+1.
    let mut net = FlowNetwork::new(2 * n);
    for v in graph.nodes() {
        let w = if v == source || v == sink {
            INF
        } else {
            weight(v).min(INF - 1)
        };
        net.add_edge(2 * v.index(), 2 * v.index() + 1, w);
    }
    for (u, v) in graph.edges() {
        if u != v {
            net.add_edge(2 * u.index() + 1, 2 * v.index(), INF);
        }
    }
    let flow = net.max_flow(2 * source.index() + 1, 2 * sink.index());
    if flow >= INF - 1 {
        return None;
    }
    let mut cut = Vec::new();
    for v in graph.nodes() {
        if v == source || v == sink {
            continue;
        }
        // The split edge crosses the cut: in-node on the source side,
        // out-node on the sink side.
        if net.source_side(2 * v.index()) && !net.source_side(2 * v.index() + 1) {
            cut.push(v);
        }
    }
    Some(VertexCut {
        total_weight: flow,
        cut,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_graph() -> (DiGraph<()>, Vec<NodeId>) {
        // s → a → b → t: any interior node is a cut.
        let mut g = DiGraph::new();
        let ids: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(ids[0], ids[1]);
        g.add_edge(ids[1], ids[2]);
        g.add_edge(ids[2], ids[3]);
        (g, ids)
    }

    #[test]
    fn vertex_cut_chain() {
        let (g, ids) = chain_graph();
        let cut = min_vertex_cut(&g, ids[0], ids[3], |_| 1).expect("cuttable");
        assert_eq!(cut.total_weight, 1);
        assert_eq!(cut.cut.len(), 1);
        assert!(cut.cut[0] == ids[1] || cut.cut[0] == ids[2]);
    }

    #[test]
    fn vertex_cut_weighted_prefers_cheap_node() {
        let (g, ids) = chain_graph();
        // Make node a expensive; the cut must pick b.
        let cut = min_vertex_cut(&g, ids[0], ids[3], |v| if v == ids[1] { 100 } else { 1 })
            .expect("cuttable");
        assert_eq!(cut.total_weight, 1);
        assert_eq!(cut.cut, vec![ids[2]]);
    }

    #[test]
    fn vertex_cut_diamond_needs_both_arms() {
        // s → {a, b} → t: must remove both arms.
        let mut g = DiGraph::<()>::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a);
        g.add_edge(s, b);
        g.add_edge(a, t);
        g.add_edge(b, t);
        let cut = min_vertex_cut(&g, s, t, |_| 1).expect("cuttable");
        assert_eq!(cut.total_weight, 2);
        assert_eq!(cut.cut, vec![a, b]);
    }

    #[test]
    fn vertex_cut_none_for_direct_edge() {
        let mut g = DiGraph::<()>::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t);
        assert_eq!(min_vertex_cut(&g, s, t, |_| 1), None);
        assert_eq!(min_vertex_cut(&g, s, s, |_| 1), None);
    }

    #[test]
    fn vertex_cut_already_disconnected() {
        let mut g = DiGraph::<()>::new();
        let s = g.add_node(());
        let t = g.add_node(());
        let cut = min_vertex_cut(&g, s, t, |_| 1).expect("empty cut");
        assert_eq!(cut.total_weight, 0);
        assert!(cut.cut.is_empty());
    }

    #[test]
    fn vertex_cut_removal_disconnects() {
        // Verify the cut property on a denser graph: removing the cut
        // leaves no s→t path.
        let mut g = DiGraph::<()>::new();
        let ids: Vec<NodeId> = (0..8).map(|_| g.add_node(())).collect();
        let edges = [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (3, 5),
            (4, 6),
            (5, 6),
            (6, 7),
            (2, 5),
        ];
        for (u, v) in edges {
            g.add_edge(ids[u], ids[v]);
        }
        let cut = min_vertex_cut(&g, ids[0], ids[7], |_| 1).expect("cuttable");
        assert_eq!(cut.total_weight, 1, "node 6 is the bottleneck");
        assert_eq!(cut.cut, vec![ids[6]]);
        // Remove the cut and check s cannot reach t.
        let removed: std::collections::HashSet<NodeId> = cut.cut.iter().copied().collect();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![ids[0]];
        seen.insert(ids[0]);
        while let Some(v) = stack.pop() {
            for &n in g.out_neighbors(v) {
                if !removed.contains(&n) && seen.insert(n) {
                    stack.push(n);
                }
            }
        }
        assert!(!seen.contains(&ids[7]));
    }

    #[test]
    fn vertex_cut_cycles_do_not_confuse() {
        // s → a ↔ b → t plus a self-loop on a.
        let mut g = DiGraph::<()>::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a);
        g.add_edge(a, b);
        g.add_edge(b, a);
        g.add_edge(a, a);
        g.add_edge(b, t);
        let cut = min_vertex_cut(&g, s, t, |_| 1).expect("cuttable");
        assert_eq!(cut.total_weight, 1);
    }
}
