//! Strongly connected components (iterative Tarjan).
//!
//! Delegation graphs are cyclic in practice — zones serve each other's
//! nameservers (the paper's Figure 1 shows cornell ↔ rochester ↔ wisc
//! interdependencies). SCCs identify such mutual-trust clusters, and
//! their reverse-topological numbering lets closure and depth passes
//! walk the condensation in id order, with no topological sort. The pass is
//! serial, so the numbering is a pure function of the adjacency order —
//! the same on every machine and at every thread count.

use crate::digraph::{DiGraph, NodeId};

/// The SCC decomposition of a graph.
#[derive(Debug, Clone)]
pub struct SccResult {
    /// For each node, the id of its component (0-based, reverse
    /// topological: every edge `a → b` has `component_of[a] >=
    /// component_of[b]`, so a pass in ascending id order sees every
    /// out-of-component successor finished first).
    pub component_of: Vec<usize>,
    /// Members of each component.
    pub components: Vec<Vec<NodeId>>,
}

impl SccResult {
    /// Number of components.
    pub fn count(&self) -> usize {
        self.components.len()
    }
}

/// Computes strongly connected components with an iterative Tarjan.
pub fn tarjan_scc<N>(graph: &DiGraph<N>) -> SccResult {
    tarjan_scc_with(
        graph.node_count(),
        |u| graph.out_degree(NodeId(u as u32)),
        |u, k| graph.out_neighbors(NodeId(u as u32))[k].index(),
    )
}

/// The iterative-Tarjan core over any adjacency representation: `degree(u)`
/// is node `u`'s out-degree and `neighbor(u, k)` its `k`-th out-neighbor.
/// [`tarjan_scc`] (arena graphs) delegates here, and the survey's
/// dependency index runs it over per-home-zone rows without building a
/// graph.
pub fn tarjan_scc_with(
    n: usize,
    degree: impl Fn(usize) -> usize,
    neighbor: impl Fn(usize, usize) -> usize,
) -> SccResult {
    const UNSET: usize = usize::MAX;
    let mut index_of = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut component_of = vec![UNSET; n];
    let mut components: Vec<Vec<NodeId>> = Vec::new();
    let mut next_index = 0usize;

    // Explicit DFS frames: (node, neighbor cursor).
    let mut frames: Vec<(NodeId, usize)> = Vec::new();
    for root in (0..n as u32).map(NodeId) {
        if index_of[root.index()] != UNSET {
            continue;
        }
        frames.push((root, 0));
        index_of[root.index()] = next_index;
        low[root.index()] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root.index()] = true;

        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor < degree(v.index()) {
                let w = NodeId(neighbor(v.index(), *cursor) as u32);
                *cursor += 1;
                if index_of[w.index()] == UNSET {
                    index_of[w.index()] = next_index;
                    low[w.index()] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w.index()] = true;
                    frames.push((w, 0));
                } else if on_stack[w.index()] {
                    low[v.index()] = low[v.index()].min(index_of[w.index()]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    low[parent.index()] = low[parent.index()].min(low[v.index()]);
                }
                if low[v.index()] == index_of[v.index()] {
                    // v roots a component; pop it off the stack.
                    let id = components.len();
                    let mut members = Vec::new();
                    loop {
                        let w = stack.pop().expect("stack holds the component");
                        on_stack[w.index()] = false;
                        component_of[w.index()] = id;
                        members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    components.push(members);
                }
            }
        }
    }
    SccResult {
        component_of,
        components,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cycle_is_one_component() {
        let mut g = DiGraph::<()>::new();
        let nodes: Vec<NodeId> = (0..5).map(|_| g.add_node(())).collect();
        for i in 0..5 {
            g.add_edge(nodes[i], nodes[(i + 1) % 5]);
        }
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 1);
        assert_eq!(scc.components[0].len(), 5);
    }

    #[test]
    fn dag_has_singleton_components() {
        let mut g = DiGraph::<()>::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b);
        g.add_edge(b, c);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 3);
        assert!(scc.components.iter().all(|m| m.len() == 1));
    }

    #[test]
    fn mixed_graph_mirrors_paper_interdependency() {
        // cornell ↔ rochester form a mutual-trust pair; wisc depends on
        // umich; rochester depends on wisc.
        let mut g = DiGraph::<&str>::new();
        let cornell = g.add_node("cornell");
        let rochester = g.add_node("rochester");
        let wisc = g.add_node("wisc");
        let umich = g.add_node("umich");
        g.add_edge(cornell, rochester);
        g.add_edge(rochester, cornell);
        g.add_edge(rochester, wisc);
        g.add_edge(wisc, umich);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 3);
        assert_eq!(
            scc.component_of[cornell.index()],
            scc.component_of[rochester.index()]
        );
        assert_ne!(
            scc.component_of[wisc.index()],
            scc.component_of[umich.index()]
        );
        // Ids are reverse topological: umich, then wisc, then the pair.
        assert_eq!(scc.component_of[umich.index()], 0);
        assert_eq!(scc.component_of[wisc.index()], 1);
        assert_eq!(scc.components[2].len(), 2);
        for (from, to) in g.edges() {
            assert!(scc.component_of[from.index()] >= scc.component_of[to.index()]);
        }
    }

    #[test]
    fn self_loop_is_singleton_component() {
        let mut g = DiGraph::<()>::new();
        let a = g.add_node(());
        g.add_edge(a, a);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 1);
        assert_eq!(scc.components[0], vec![a]);
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::<()>::new();
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 0);
    }
}
