//! Traversals: reachability, shortest paths and transitive closure.

use crate::digraph::{DiGraph, NodeId};
use perils_graph::BitSet;

/// The set of nodes reachable from `start` (including `start`), via BFS.
pub fn reachable_from<N>(graph: &DiGraph<N>, start: NodeId) -> BitSet {
    let mut seen = BitSet::new(graph.node_count());
    seen.insert(start.index());
    let mut queue = vec![start];
    while let Some(node) = queue.pop() {
        for &next in graph.out_neighbors(node) {
            if seen.insert(next.index()) {
                queue.push(next);
            }
        }
    }
    seen
}

/// The least shortest path from `from` to `to`, both inclusive: of the
/// paths with the fewest edges, the one whose node ids are
/// lexicographically least. `None` when `to` is unreachable from `from`.
///
/// Computed without regard to adjacency order: every node's distance to
/// `to`, one edge-list sweep per distance, then a walk from `from` that
/// always steps to the least-id successor one edge closer. The
/// `choke-point` lint rule's witness is this path through the delegation
/// graph (property-tested in `perils_core`).
pub fn shortest_path<N>(graph: &DiGraph<N>, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    let mut distance = vec![usize::MAX; graph.node_count()];
    distance[to.index()] = 0;
    for d in 0..graph.node_count() {
        for (u, v) in graph.edges() {
            if distance[v.index()] == d && distance[u.index()] == usize::MAX {
                distance[u.index()] = d + 1;
            }
        }
    }
    let total = distance[from.index()];
    if total == usize::MAX {
        return None;
    }
    let mut path = vec![from];
    for left in (0..total).rev() {
        let at = path[path.len() - 1];
        let next = graph
            .out_neighbors(at)
            .iter()
            .filter(|v| distance[v.index()] == left);
        path.push(
            *next
                .min()
                .expect("a node at distance d + 1 has a successor at d"),
        );
    }
    Some(path)
}

/// Per-node transitive closure: `closure[v]` contains every node reachable
/// from `v` (including `v`).
///
/// Implemented with one BFS per node over bitsets; suitable for the
/// per-name delegation graphs (tens to hundreds of nodes). Whole-survey
/// closures collapse cycles with [`perils_graph::scc`] first and memoize one set
/// per component (the survey's dependency index does).
pub fn transitive_closure<N>(graph: &DiGraph<N>) -> Vec<BitSet> {
    graph.nodes().map(|v| reachable_from(graph, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<()>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        (g, [a, b, c, d])
    }

    #[test]
    fn reachability() {
        let (g, [a, b, c, d]) = diamond();
        let r = reachable_from(&g, a);
        assert_eq!(r.len(), 4);
        let r = reachable_from(&g, b);
        assert!(r.contains(b.index()) && r.contains(d.index()));
        assert!(!r.contains(a.index()) && !r.contains(c.index()));
    }

    #[test]
    fn closure_includes_self_and_descendants() {
        let (g, [a, b, _, d]) = diamond();
        let closure = transitive_closure(&g);
        assert_eq!(closure[a.index()].len(), 4);
        assert_eq!(closure[d.index()].len(), 1);
        assert!(closure[b.index()].contains(d.index()));
        assert!(!closure[b.index()].contains(a.index()));
    }

    #[test]
    fn shortest_path_finds_a_minimal_route() {
        let (g, [a, b, _, d]) = diamond();
        let path = shortest_path(&g, a, d).expect("reachable");
        assert_eq!(path.len(), 3, "two hops through either arm");
        assert_eq!(path[0], a);
        assert_eq!(*path.last().unwrap(), d);
        assert_eq!(path[1], b, "the least-id of the two arms");
        assert_eq!(shortest_path(&g, a, a), Some(vec![a]));
        assert_eq!(shortest_path(&g, d, a), None, "edges are directed");
        // The same diamond with every edge inserted in reverse order.
        let mut reversed = DiGraph::<()>::new();
        for _ in 0..4 {
            reversed.add_node(());
        }
        let mut edges: Vec<_> = g.edges().collect();
        edges.reverse();
        for (u, v) in edges {
            reversed.add_edge(u, v);
        }
        assert_eq!(shortest_path(&reversed, a, d), Some(path));
    }

    #[test]
    fn handles_cycles_in_reachability() {
        let mut g = DiGraph::<()>::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b);
        g.add_edge(b, a);
        g.add_edge(b, c);
        let r = reachable_from(&g, a);
        assert_eq!(r.len(), 3);
        assert_eq!(
            reachable_from(&g, b).len(),
            3,
            "cycle must not loop forever"
        );
        assert_eq!(reachable_from(&g, c).len(), 1);
    }
}
