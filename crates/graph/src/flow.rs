//! Dinic max-flow and minimum s–t **vertex** cuts.
//!
//! The paper determines "critical bottleneck nameservers" by computing a
//! min-cut of the delegation graph (§3.2, Figure 7). Compromising a
//! nameserver removes a *vertex*, so the cut of interest is a vertex cut:
//! the standard reduction splits every node `v` into `v_in → v_out` with
//! capacity equal to the cost of removing `v`, turns original edges into
//! infinite-capacity arcs, and runs max-flow. The saturated split edges that
//! separate source from sink are exactly the minimum vertex cut
//! (Menger's theorem).
//!
//! [`FlowNetwork`] is flat — per-edge arrays threaded into per-node lists —
//! and owns the scratch its max-flow needs, so one network serves many
//! graphs through [`FlowNetwork::clear`] without allocating again.
//! [`min_vertex_cut`] and the per-name hijack kernel in `perils_core` run
//! the same [`FlowNetwork::max_flow`].

use crate::digraph::{DiGraph, NodeId};

/// Effectively-infinite capacity (large enough to never saturate, small
/// enough to never overflow when summed).
pub const INF: u64 = u64::MAX / 4;

/// End of a node's edge list; also the level of a node the last BFS did
/// not reach.
const NIL: u32 = u32::MAX;

/// A flow network with Dinic max-flow.
///
/// Edges are stored in pairs: edge `2k` is the forward edge, `2k+1` its
/// residual reverse, so `cap[e] + cap[e ^ 1]` never changes and no
/// capacity update can overflow. A node's edges form a list through
/// `next`, newest first.
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    /// Per node: its newest edge, or [`NIL`].
    head: Vec<u32>,
    /// Per edge: target node, residual capacity, next edge of the same
    /// tail node.
    to: Vec<u32>,
    cap: Vec<u64>,
    next: Vec<u32>,
    /// Per node: BFS distance from the source in the residual graph of the
    /// latest [`FlowNetwork::max_flow`] phase.
    level: Vec<u32>,
    /// Per node: the first edge the current phase has not exhausted.
    cursor: Vec<u32>,
    queue: Vec<u32>,
    /// Edge ids of the partial augmenting path, source first.
    path: Vec<u32>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> FlowNetwork {
        let mut net = FlowNetwork::default();
        net.add_nodes(n);
        net
    }

    /// Removes every node and edge, keeping the allocations: the next
    /// graph built here behaves exactly as on a fresh network.
    pub fn clear(&mut self) {
        self.head.clear();
        self.to.clear();
        self.cap.clear();
        self.next.clear();
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self) -> usize {
        self.add_nodes(1)
    }

    /// Adds `n` nodes with consecutive ids, returning the first.
    pub fn add_nodes(&mut self, n: usize) -> usize {
        let first = self.head.len();
        self.head.resize(first + n, NIL);
        first
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.head.len()
    }

    /// Adds a directed edge with capacity `cap` (and its zero-capacity
    /// residual twin).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: u64) {
        assert!(
            from < self.head.len() && to < self.head.len(),
            "endpoint out of range"
        );
        for (tail, target, cap) in [(from, to, cap), (to, from, 0)] {
            self.next.push(self.head[tail]);
            self.head[tail] = self.to.len() as u32;
            self.to.push(target as u32);
            self.cap.push(cap);
        }
    }

    /// Runs Dinic from `source` to `sink`, returning the max-flow value.
    /// May be called once per graph (capacities are consumed).
    pub fn max_flow(&mut self, source: usize, sink: usize) -> u64 {
        assert!(
            source < self.head.len() && sink < self.head.len(),
            "endpoint out of range"
        );
        let mut total = 0u64;
        loop {
            self.label_levels(source);
            if source == sink || self.level[sink] == NIL {
                return total;
            }
            self.cursor.clear();
            self.cursor.extend_from_slice(&self.head);
            total = total.saturating_add(self.blocking_flow(source, sink));
        }
    }

    /// BFS over edges with residual capacity: the level graph of one
    /// phase.
    fn label_levels(&mut self, source: usize) {
        self.level.clear();
        self.level.resize(self.head.len(), NIL);
        self.level[source] = 0;
        self.queue.clear();
        self.queue.push(source as u32);
        let mut at = 0;
        while let Some(&v) = self.queue.get(at) {
            at += 1;
            let mut e = self.head[v as usize];
            while e != NIL {
                let to = self.to[e as usize];
                if self.cap[e as usize] > 0 && self.level[to as usize] == NIL {
                    self.level[to as usize] = self.level[v as usize] + 1;
                    self.queue.push(to);
                }
                e = self.next[e as usize];
            }
        }
    }

    /// Saturates the level graph: augmenting paths found by an iterative
    /// DFS with current-arc cursors. After a push the search resumes at
    /// the tail of the path's first saturated edge, not at the source.
    fn blocking_flow(&mut self, source: usize, sink: usize) -> u64 {
        let mut total = 0u64;
        self.path.clear();
        let mut v = source;
        loop {
            if v == sink {
                let bottleneck = self
                    .path
                    .iter()
                    .map(|&e| self.cap[e as usize])
                    .min()
                    .expect("source != sink, so the path has an edge");
                let mut saturated = self.path.len();
                for (at, &e) in self.path.iter().enumerate().rev() {
                    self.cap[e as usize] -= bottleneck;
                    self.cap[e as usize ^ 1] += bottleneck;
                    if self.cap[e as usize] == 0 {
                        saturated = at;
                    }
                }
                total = total.saturating_add(bottleneck);
                v = self.to[self.path[saturated] as usize ^ 1] as usize;
                self.path.truncate(saturated);
                continue;
            }
            // Advance along the first admissible edge at or after the
            // cursor.
            let mut e = self.cursor[v];
            while e != NIL
                && !(self.cap[e as usize] > 0
                    && self.level[self.to[e as usize] as usize] == self.level[v] + 1)
            {
                e = self.next[e as usize];
            }
            self.cursor[v] = e;
            if e != NIL {
                self.path.push(e);
                v = self.to[e as usize] as usize;
                continue;
            }
            // Dead end: retreat, and exhaust the edge that led here.
            let Some(e) = self.path.pop() else {
                return total;
            };
            v = self.to[e as usize ^ 1] as usize;
            self.cursor[v] = self.next[e as usize];
        }
    }

    /// After [`FlowNetwork::max_flow`], whether `node` is reachable from
    /// the source in the residual graph — the source side of a min cut.
    /// It is the *same* set for every maximum flow (the smallest source
    /// side any min cut has), so it does not depend on the order edges
    /// were added in or paths were augmented in. Read off the last phase's
    /// BFS, which is the one that failed to reach the sink.
    pub fn source_side(&self, node: usize) -> bool {
        self.level[node] != NIL
    }
}

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

    #[test]
    fn max_flow_classic() {
        // Two disjoint unit paths s→a→t and s→b→t.
        let mut net = FlowNetwork::new(4);
        let (s, a, b, t) = (0, 1, 2, 3);
        net.add_edge(s, a, 1);
        net.add_edge(s, b, 1);
        net.add_edge(a, t, 1);
        net.add_edge(b, t, 1);
        assert_eq!(net.max_flow(s, t), 2);
    }

    #[test]
    fn max_flow_bottleneck() {
        let mut net = FlowNetwork::new(4);
        let (s, a, b, t) = (0, 1, 2, 3);
        net.add_edge(s, a, 10);
        net.add_edge(a, b, 3);
        net.add_edge(b, t, 10);
        assert_eq!(net.max_flow(s, t), 3);
    }

    #[test]
    fn max_flow_with_residual_rerouting() {
        // The classic example requiring flow cancellation.
        let mut net = FlowNetwork::new(4);
        let (s, a, b, t) = (0, 1, 2, 3);
        net.add_edge(s, a, 1);
        net.add_edge(s, b, 1);
        net.add_edge(a, b, 1);
        net.add_edge(a, t, 1);
        net.add_edge(b, t, 1);
        assert_eq!(net.max_flow(s, t), 2);
    }

    #[test]
    fn disconnected_flow_is_zero() {
        let mut net = FlowNetwork::new(2);
        assert_eq!(net.max_flow(0, 1), 0);
    }

    /// Builds the rerouting example, or a bottleneck path, on `net`.
    fn wire(net: &mut FlowNetwork, rerouting: bool) -> (usize, usize) {
        let s = net.add_nodes(if rerouting { 4 } else { 3 });
        if rerouting {
            let (a, b, t) = (s + 1, s + 2, s + 3);
            for (u, v) in [(s, a), (s, b), (a, b), (a, t), (b, t)] {
                net.add_edge(u, v, 1);
            }
            (s, t)
        } else {
            net.add_edge(s, s + 1, 7);
            net.add_edge(s + 1, s + 2, 3);
            (s, s + 2)
        }
    }

    /// One network reused through `clear()` answers as two fresh ones do:
    /// no residual capacity, exhausted cursor or level of the first graph
    /// reaches the second.
    #[test]
    fn cleared_network_behaves_as_fresh() {
        let mut reused = FlowNetwork::new(0);
        for rerouting in [true, false, true] {
            reused.clear();
            let (s, t) = wire(&mut reused, rerouting);
            let mut fresh = FlowNetwork::new(0);
            assert_eq!(wire(&mut fresh, rerouting), (s, t));
            assert_eq!(reused.node_count(), fresh.node_count());
            let flow = reused.max_flow(s, t);
            assert_eq!(flow, fresh.max_flow(s, t));
            assert_eq!(flow, if rerouting { 2 } else { 3 });
            for v in 0..fresh.node_count() {
                assert_eq!(reused.source_side(v), fresh.source_side(v), "node {v}");
            }
        }
    }

    /// Thirteen `INF / 2` feeders into one `INF` edge: the edge saturates
    /// at `INF`, and nothing overflows on the way (debug builds panic on
    /// overflow).
    #[test]
    fn near_infinite_capacities_saturate_without_overflow() {
        let mut net = FlowNetwork::new(16);
        let (s, hub, t) = (0, 14, 15);
        for feeder in 1..=13 {
            net.add_edge(s, feeder, INF);
            net.add_edge(feeder, hub, INF / 2);
        }
        net.add_edge(hub, t, INF);
        assert_eq!(net.max_flow(s, t), INF);
        assert!(net.source_side(hub) && !net.source_side(t));
    }

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
