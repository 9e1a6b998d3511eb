//! Traversals: reachability, shortest paths and transitive closure.

use crate::bitset::BitSet;
use crate::digraph::{DiGraph, NodeId};

/// The set of nodes reachable from `start` (including `start`), via BFS.
pub fn reachable_from<N>(graph: &DiGraph<N>, start: NodeId) -> BitSet {
    reachable_from_all(graph, std::iter::once(start))
}

/// The set of nodes reachable from any of `starts` (including them).
pub fn reachable_from_all<N>(
    graph: &DiGraph<N>,
    starts: impl IntoIterator<Item = NodeId>,
) -> BitSet {
    let mut seen = BitSet::new(graph.node_count());
    let mut queue: Vec<NodeId> = Vec::new();
    for start in starts {
        if seen.insert(start.index()) {
            queue.push(start);
        }
    }
    while let Some(node) = queue.pop() {
        for &next in graph.out_neighbors(node) {
            if seen.insert(next.index()) {
                queue.push(next);
            }
        }
    }
    seen
}

/// A shortest (fewest-edges) path from `from` to `to`, both inclusive,
/// via BFS with parent reconstruction. `None` when `to` is unreachable
/// from `from`.
///
/// Used by the lint engine to extract cut-witness paths from delegation
/// graphs: the evidence for a `choke-point` finding is a concrete
/// source → cut-server → target path, which is exactly two of these.
pub fn shortest_path<N>(graph: &DiGraph<N>, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    if from == to {
        return Some(vec![from]);
    }
    let mut parent: Vec<Option<NodeId>> = vec![None; graph.node_count()];
    let mut seen = BitSet::new(graph.node_count());
    seen.insert(from.index());
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(from);
    while let Some(node) = queue.pop_front() {
        for &next in graph.out_neighbors(node) {
            if seen.insert(next.index()) {
                parent[next.index()] = Some(node);
                if next == to {
                    let mut path = vec![to];
                    let mut cursor = to;
                    while let Some(p) = parent[cursor.index()] {
                        path.push(p);
                        cursor = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(next);
            }
        }
    }
    None
}

/// Per-node transitive closure: `closure[v]` contains every node reachable
/// from `v` (including `v`).
///
/// Implemented with one BFS per node over bitsets; suitable for the
/// per-name delegation graphs (tens to hundreds of nodes). Whole-survey
/// closures collapse cycles with [`crate::scc`] first and memoize one set
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
        let r = reachable_from_all(&g, [b, c]);
        assert_eq!(r.len(), 3);
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
        let (g, [a, b, c, d]) = diamond();
        let path = shortest_path(&g, a, d).expect("reachable");
        assert_eq!(path.len(), 3, "two hops through either arm");
        assert_eq!(path[0], a);
        assert_eq!(*path.last().unwrap(), d);
        assert!(path[1] == b || path[1] == c);
        assert_eq!(shortest_path(&g, a, a), Some(vec![a]));
        assert_eq!(shortest_path(&g, d, a), None, "edges are directed");
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
