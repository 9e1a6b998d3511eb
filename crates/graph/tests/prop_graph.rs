//! Property-based tests for the graph substrate, centered on the min vertex
//! cut — the primitive the paper's hijack analysis rests on. On random small
//! graphs we verify the cut against an exhaustive search.

use proptest::prelude::*;

use perils_graph::digraph::{DiGraph, NodeId};
use perils_graph::flow::min_vertex_cut;
use perils_graph::scc::tarjan_scc;
use perils_graph::traversal::{reachable_from, transitive_closure};

/// A random directed graph on `n` nodes given an edge bitmap.
fn graph_from_edges(n: usize, edges: &[(usize, usize)]) -> DiGraph<()> {
    let mut g = DiGraph::new();
    let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
    for &(u, v) in edges {
        g.add_edge(ids[u % n], ids[v % n]);
    }
    g
}

fn arb_graph(max_n: usize, max_e: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2..=max_n)
        .prop_flat_map(move |n| (Just(n), proptest::collection::vec((0..n, 0..n), 0..=max_e)))
}

/// Does `s` reach `t` after removing `removed`?
fn reaches_avoiding(g: &DiGraph<()>, s: NodeId, t: NodeId, removed: u32) -> bool {
    if (removed >> s.index()) & 1 == 1 || (removed >> t.index()) & 1 == 1 {
        // We never consider removing endpoints.
        return true;
    }
    let mut seen = vec![false; g.node_count()];
    let mut stack = vec![s];
    seen[s.index()] = true;
    while let Some(v) = stack.pop() {
        if v == t {
            return true;
        }
        for &n in g.out_neighbors(v) {
            if (removed >> n.index()) & 1 == 0 && !seen[n.index()] {
                seen[n.index()] = true;
                stack.push(n);
            }
        }
    }
    false
}

/// Brute-force minimum vertex cut size by trying all subsets of interior
/// nodes. `None` if even removing all interior nodes keeps s→t connected.
fn brute_force_cut_size(g: &DiGraph<()>, s: NodeId, t: NodeId) -> Option<usize> {
    let n = g.node_count();
    assert!(n <= 12, "brute force limited to small graphs");
    let interior: Vec<usize> = (0..n)
        .filter(|&i| i != s.index() && i != t.index())
        .collect();
    let mut best: Option<usize> = None;
    for mask in 0u32..(1 << interior.len()) {
        let mut removed = 0u32;
        for (bit, &node) in interior.iter().enumerate() {
            if (mask >> bit) & 1 == 1 {
                removed |= 1 << node;
            }
        }
        if !reaches_avoiding(g, s, t, removed) {
            let size = mask.count_ones() as usize;
            if best.is_none_or(|b| size < b) {
                best = Some(size);
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// min_vertex_cut matches exhaustive search on small random graphs,
    /// and the returned vertex set really disconnects s from t.
    #[test]
    fn vertex_cut_matches_brute_force((n, edges) in arb_graph(7, 18)) {
        let g = graph_from_edges(n, &edges);
        let s = NodeId(0);
        let t = NodeId((n - 1) as u32);
        let brute = brute_force_cut_size(&g, s, t);
        match min_vertex_cut(&g, s, t, |_| 1) {
            Some(cut) => {
                prop_assert_eq!(Some(cut.total_weight as usize), brute,
                    "flow cut size vs brute force");
                prop_assert_eq!(cut.cut.len() as u64, cut.total_weight);
                // Removing the cut must disconnect.
                let mut removed = 0u32;
                for v in &cut.cut {
                    removed |= 1 << v.index();
                }
                prop_assert!(!reaches_avoiding(&g, s, t, removed),
                    "returned cut fails to disconnect");
            }
            None => prop_assert_eq!(brute, None, "flow says uncuttable"),
        }
    }

    /// Weighted cuts never exceed the unit-cut weight bound and respect
    /// weights: making one node free never increases total weight.
    #[test]
    fn vertex_cut_weight_monotonicity((n, edges) in arb_graph(7, 18), free in 1usize..6) {
        let g = graph_from_edges(n, &edges);
        let s = NodeId(0);
        let t = NodeId((n - 1) as u32);
        let base = min_vertex_cut(&g, s, t, |_| 2);
        let discounted = min_vertex_cut(&g, s, t, |v| if v.index() == free % n { 1 } else { 2 });
        if let (Some(a), Some(b)) = (base, discounted) {
            prop_assert!(b.total_weight <= a.total_weight);
        }
    }

    /// Transitive closure agrees with per-node BFS reachability.
    #[test]
    fn closure_matches_reachability((n, edges) in arb_graph(8, 24)) {
        let g = graph_from_edges(n, &edges);
        let closure = transitive_closure(&g);
        for v in g.nodes() {
            let direct = reachable_from(&g, v);
            prop_assert_eq!(&closure[v.index()], &direct);
        }
    }

    /// SCC invariants: components partition the nodes; two nodes share a
    /// component iff they reach each other; every edge a→b has
    /// `component_of[a] >= component_of[b]` (Tarjan emits components in
    /// reverse topological order).
    #[test]
    fn scc_invariants((n, edges) in arb_graph(8, 24)) {
        let g = graph_from_edges(n, &edges);
        let scc = tarjan_scc(&g);
        let total: usize = scc.components.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.node_count());
        let closure = transitive_closure(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                let same = scc.component_of[a.index()] == scc.component_of[b.index()];
                let mutual = closure[a.index()].contains(b.index())
                    && closure[b.index()].contains(a.index());
                prop_assert_eq!(same, mutual, "SCC vs mutual reachability for {:?},{:?}", a, b);
            }
        }
        for (a, b) in g.edges() {
            prop_assert!(
                scc.component_of[a.index()] >= scc.component_of[b.index()],
                "Tarjan ids must be reverse topological on {:?}->{:?}", a, b
            );
        }
    }

    /// Max-flow value equals min *edge* cut on unit-capacity layered
    /// graphs (weak duality sanity: flow through any graph never exceeds
    /// the out-degree of the source or in-degree of the sink).
    #[test]
    fn flow_bounded_by_degree((n, edges) in arb_graph(8, 24)) {
        let g = graph_from_edges(n, &edges);
        let s = NodeId(0);
        let t = NodeId((n - 1) as u32);
        let mut net = perils_graph::flow::FlowNetwork::new(n);
        for (u, v) in g.edges() {
            net.add_edge(u.index(), v.index(), 1);
        }
        let flow = net.max_flow(s.index(), t.index());
        prop_assert!(flow <= g.out_degree(s) as u64);
        prop_assert!(flow <= g.edges().filter(|&(_, v)| v == t).count() as u64);
    }
}
