//! An arena-based directed graph with dense node ids.
//!
//! Nodes carry a weight `N` (the analysis stores nameserver metadata there);
//! edges are unweighted ordered pairs. Only out-adjacency is stored: every
//! analysis walks dependency edges forward ("which servers does this name
//! depend on").

/// A dense node identifier, valid for the graph that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A directed graph with node weights.
#[derive(Debug, Clone)]
pub struct DiGraph<N> {
    weights: Vec<N>,
    out_edges: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl<N> Default for DiGraph<N> {
    fn default() -> Self {
        DiGraph {
            weights: Vec::new(),
            out_edges: Vec::new(),
            edge_count: 0,
        }
    }
}

impl<N> DiGraph<N> {
    /// Creates an empty graph.
    pub fn new() -> DiGraph<N> {
        DiGraph::default()
    }

    /// Adds a node with the given weight, returning its id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId(self.weights.len() as u32);
        self.weights.push(weight);
        self.out_edges.push(Vec::new());
        id
    }

    /// Adds a directed edge `from → to`. Parallel edges and self-loops are
    /// permitted (delegation data can contain both; analyses that care
    /// deduplicate).
    ///
    /// # Panics
    ///
    /// Panics if either id is not from this graph.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        assert!(from.index() < self.weights.len(), "from node out of range");
        assert!(to.index() < self.weights.len(), "to node out of range");
        self.out_edges[from.index()].push(to);
        self.edge_count += 1;
    }

    /// Adds `from → to` unless that exact edge already exists.
    /// Returns whether an edge was added. O(out-degree).
    pub fn add_edge_dedup(&mut self, from: NodeId, to: NodeId) -> bool {
        if self.out_edges[from.index()].contains(&to) {
            false
        } else {
            self.add_edge(from, to);
            true
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.weights.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The weight of `node`.
    pub fn weight(&self, node: NodeId) -> &N {
        &self.weights[node.index()]
    }

    /// Successors of `node`.
    pub fn out_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.out_edges[node.index()]
    }

    /// Out-degree of `node`.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_edges[node.index()].len()
    }

    /// Iterates node ids in creation order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.weights.len() as u32).map(NodeId)
    }

    /// Iterates all edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.out_edges
            .iter()
            .enumerate()
            .flat_map(|(from, outs)| outs.iter().map(move |&to| (NodeId(from as u32), to)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g: DiGraph<&str> = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, c);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_neighbors(a), &[b, c]);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.out_degree(c), 0);
        assert_eq!(*g.weight(b), "b");
    }

    #[test]
    fn dedup_edges() {
        let mut g: DiGraph<()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        assert!(g.add_edge_dedup(a, b));
        assert!(!g.add_edge_dedup(a, b));
        assert!(g.add_edge_dedup(b, a), "reverse direction is distinct");
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn self_loops_allowed() {
        let mut g: DiGraph<()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a);
        assert_eq!(g.out_neighbors(a), &[a]);
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(a, a)]);
    }

    #[test]
    fn edges_iterator() {
        let mut g: DiGraph<()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b);
        g.add_edge(b, a);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(a, b), (b, a)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_to_foreign_node_panics() {
        let mut g: DiGraph<()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId(7));
    }
}
