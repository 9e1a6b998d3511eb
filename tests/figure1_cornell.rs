//! Figure 1 cross-validation: the structural analysis (straight from zone
//! data) and the wire-probed discovery (iterative resolution over the
//! simulated internet) must see the same delegation graph.

use perils::authserver::deploy::deploy;
use perils::authserver::scenarios::cornell_figure1;
use perils::core::closure::{ClosureView, DependencyIndex};
use perils::core::tcb::TcbTally;
use perils::core::universe::Universe;
use perils::dns::name::name;
use perils::netsim::SimNet;
use perils::resolver::{ChainProber, IterativeResolver, ResolverConfig};
use perils::survey::engine::{ProbedSource, WorldSource};
use perils::survey::scenario::universe_from_scenario;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The host names of a closure's TCB members (root servers excluded).
fn tcb_names(universe: &Universe, closure: &ClosureView<'_>) -> BTreeSet<String> {
    closure
        .servers()
        .map(|s| universe.server(s))
        .filter(|s| !s.is_root)
        .map(|s| s.name.to_string())
        .collect()
}

#[test]
fn structural_and_wire_probed_views_agree() {
    let scenario = cornell_figure1();
    let target = name("www.cs.cornell.edu");

    // Structural view.
    let structural = universe_from_scenario(&scenario);
    let index = DependencyIndex::build(&structural);
    let mut ws = index.workspace();
    let closure = index.closure_view(&structural, &target, &mut ws);
    let structural_tcb = tcb_names(&structural, &closure);

    // Wire-probed view.
    let net = Arc::new(SimNet::new());
    deploy(&net, &scenario.registry, &scenario.specs).expect("deploy");
    let resolver = IterativeResolver::new(net, scenario.roots.clone(), ResolverConfig::default());
    let prober = ChainProber::new(&resolver);
    let report = prober.discover(&target);
    let root_names: BTreeSet<_> = scenario.roots.iter().map(|(n, _)| n.clone()).collect();
    let probed_tcb: BTreeSet<String> = report
        .tcb(&root_names)
        .iter()
        .map(|n| n.to_string())
        .collect();

    assert_eq!(structural_tcb, probed_tcb, "TCBs must match");

    // And a universe built from the wire reports yields identical TCB
    // statistics.
    let probed_universe = ProbedSource {
        reports: &[report],
        roots: scenario.roots.iter().map(|(n, _)| n.clone()).collect(),
        targets: Vec::new(),
    }
    .stream()
    .build_universe();
    let probed_index = DependencyIndex::build(&probed_universe);
    let mut probed_ws = probed_index.workspace();
    let probed_closure = probed_index.closure_view(&probed_universe, &target, &mut probed_ws);
    let a = TcbTally::compute(&structural, &closure);
    let b = TcbTally::compute(&probed_universe, &probed_closure);
    assert_eq!(a.tcb_size, b.tcb_size);
    assert_eq!(a.vulnerable, b.vulnerable);
    assert_eq!(a.nameowner_administered, b.nameowner_administered);
}

#[test]
fn figure1_tcb_contents() {
    // The paper: "the resolution of this name depends on twenty other
    // nameservers" (in the full figure). Our simplified Figure 1 keeps the
    // load-bearing subset; verify the key members and the transitive
    // chain.
    let scenario = cornell_figure1();
    let universe = universe_from_scenario(&scenario);
    let index = DependencyIndex::build(&universe);
    let target = name("www.cs.cornell.edu");
    let mut ws = index.workspace();
    let closure = index.closure_view(&universe, &target, &mut ws);
    let members = tcb_names(&universe, &closure);
    for expected in [
        "a.edu-servers.net",
        "a.gtld-servers.net",
        "cudns.cit.cornell.edu",
        "simon.cs.cornell.edu",
        "cayuga.cs.rochester.edu",
        "slate.cs.rochester.edu",
        "ns1.rochester.edu",
        "dns.cs.wisc.edu",
        "dns.wisc.edu",
        "dns.itd.umich.edu",
        "dns2.itd.umich.edu",
    ] {
        assert!(
            members.contains(expected),
            "missing {expected}: {members:?}"
        );
    }
    // Only Cornell-operated servers count as nameowner-administered.
    let stats = TcbTally::compute(&universe, &closure);
    assert_eq!(
        stats.nameowner_administered, 1,
        "simon is the only in-zone server"
    );
    assert!(stats.tcb_size >= 11);
}

#[test]
fn dependency_cycle_cornell_rochester_terminates() {
    let scenario = cornell_figure1();
    let universe = universe_from_scenario(&scenario);
    let index = DependencyIndex::build(&universe);
    // Mutual dependency cornell ↔ rochester: both closures finite, both
    // contain the pair.
    let mut ws = index.workspace();
    for target in ["www.cs.cornell.edu", "www.cs.rochester.edu"] {
        let target = name(target);
        let closure = index.closure_view(&universe, &target, &mut ws);
        assert!(closure.server_count() < universe.server_count() + 1);
        let names: BTreeSet<String> = closure
            .servers()
            .map(|s| universe.server(s).name.to_string())
            .collect();
        assert!(names.contains("simon.cs.cornell.edu"));
        assert!(names.contains("cayuga.cs.rochester.edu"));
    }
}
