//! Pins the adjacency order of the flattened delegation graph.
//!
//! `DelegationGraph::graph.edges()` enumerates each node's out-edges in
//! the order they were first inserted, and the `choke-point` lint rule's
//! witness path (a BFS over that adjacency), `to_dot` and
//! `examples/cornell_delegation.rs` all depend on it. The values below
//! were recorded at the commit before the layer walk was rewritten to
//! wire each closure zone once (PR 14); a change to them is a change to
//! lint evidence chains.

use perils::authserver::scenarios::{
    cornell_figure1, fbi_case, lint_tripwire, lint_tripwire_targets, Scenario,
};
use perils::core::closure::DependencyIndex;
use perils::core::delegation::{DelegationGraph, DelegationNode};
use perils::core::universe::Universe;
use perils::dns::name::{name, DnsName};
use perils::survey::engine::{SyntheticSource, WorldSource};
use perils::survey::params::TopologyParams;
use perils::survey::scenario::universe_from_scenario;
use perils::util::snapshot::checksum;

/// `(nodes, edges, checksum of the edge list in adjacency order)` summed
/// over `targets`. Endpoints are hashed as server ids (source `u32::MAX`,
/// target `u32::MAX - 1`), so the value does not depend on how the graph
/// numbers its nodes.
fn adjacency_digest(universe: &Universe, targets: &[DnsName]) -> (usize, usize, u64) {
    let index = DependencyIndex::build(universe);
    let mut ws = index.workspace();
    let (mut nodes, mut edges) = (0, 0);
    let mut bytes = Vec::new();
    for target in targets {
        let owned = index.closure_for(universe, target);
        let view = index.closure_view(universe, target, &mut ws);
        let dg = DelegationGraph::build_view(universe, &index, &view);
        let by_closure = DelegationGraph::build(universe, &index, &owned);
        assert!(
            dg.graph.edges().eq(by_closure.graph.edges()),
            "view and owned closure build different graphs for {target}"
        );
        nodes += dg.graph.node_count();
        edges += dg.graph.edge_count();
        let code = |node| match dg.graph.weight(node) {
            DelegationNode::Source => u32::MAX,
            DelegationNode::Target => u32::MAX - 1,
            DelegationNode::Server(sid) => sid.0,
        };
        for (from, to) in dg.graph.edges() {
            bytes.extend_from_slice(&code(from).to_le_bytes());
            bytes.extend_from_slice(&code(to).to_le_bytes());
        }
        bytes.extend_from_slice(&[0xff; 4]);
    }
    (nodes, edges, checksum(&bytes))
}

fn scenario_digest(scenario: &Scenario, targets: &[DnsName]) -> (usize, usize, u64) {
    adjacency_digest(&universe_from_scenario(scenario), targets)
}

#[test]
fn fbi_adjacency_order_is_pinned() {
    assert_eq!(
        scenario_digest(&fbi_case(), &[name("www.fbi.gov")]),
        (9, 20, 1315061050700903630)
    );
}

#[test]
fn cornell_adjacency_order_is_pinned() {
    assert_eq!(
        scenario_digest(&cornell_figure1(), &[name("www.cs.cornell.edu")]),
        (13, 29, 8392442302683663263)
    );
}

#[test]
fn tripwire_adjacency_order_is_pinned() {
    assert_eq!(
        scenario_digest(&lint_tripwire(), &lint_tripwire_targets()),
        (49, 90, 14594146937330978969)
    );
}

#[test]
fn tiny_world_adjacency_order_is_pinned() {
    let world = SyntheticSource {
        params: TopologyParams::tiny(20040722),
    }
    .load();
    let targets: Vec<DnsName> = world
        .names
        .iter()
        .take(50)
        .map(|n| n.name.clone())
        .collect();
    assert_eq!(targets.len(), 50);
    assert_eq!(
        adjacency_digest(&world.universe, &targets),
        (1828, 22789, 8479185440225257635)
    );
}
