//! Pins the machine-readable Figure 1: the Graphviz rendering of
//! www.cs.cornell.edu's delegation graph, the bytes
//! `examples/cornell_delegation.rs` writes to `figure1.dot`. Regenerate
//! with `GOLDEN_REGEN=1 cargo test -p perils-oracle --test figure1_dot`.

use perils_authserver::scenarios::cornell_figure1;
use perils_core::closure::DependencyIndex;
use perils_dns::name::name;
use perils_oracle::DelegationGraph;
use perils_survey::scenario::universe_from_scenario;
use std::path::PathBuf;

#[test]
fn figure1_dot_matches_golden() {
    let universe = universe_from_scenario(&cornell_figure1());
    let index = DependencyIndex::build(&universe);
    let target = name("www.cs.cornell.edu");
    let mut ws = index.workspace();
    let closure = index.closure_view(&universe, &target, &mut ws);
    let dg = DelegationGraph::build(&universe, &closure);
    assert_eq!((dg.graph.node_count(), dg.graph.edge_count()), (13, 29));
    let dot = dg.to_dot(&universe, "www.cs.cornell.edu");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/figure1.dot");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &dot).expect("write golden");
    }
    assert_eq!(
        dot,
        std::fs::read_to_string(&path).expect("golden figure1.dot")
    );
}
