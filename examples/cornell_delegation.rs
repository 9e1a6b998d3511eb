//! Figure 1 reconstructed: the delegation graph of www.cs.cornell.edu.
//!
//! Prints every zone in the dependency closure with its NS set, the
//! transitive chain cornell → rochester → wisc → umich the paper
//! highlights, and demonstrates the resilience/security trade: killing two
//! servers *outside* Cornell makes the name unresolvable.
//!
//! ```text
//! cargo run --release --example cornell_delegation
//! ```

use perils::authserver::deploy::deploy;
use perils::authserver::scenarios::cornell_figure1;
use perils::core::closure::DependencyIndex;
use perils::core::usable::Reachability;
use perils::dns::name::name;
use perils::dns::rr::RrType;
use perils::netsim::SimNet;
use perils::resolver::{ChainProber, IterativeResolver, ResolverConfig};
use perils::survey::scenario::universe_from_scenario;
use perils_oracle::DelegationGraph;
use std::collections::BTreeSet;
use std::sync::Arc;

fn main() {
    let scenario = cornell_figure1();
    let target = name("www.cs.cornell.edu");

    // Wire-probed view (what the paper's measurement harness saw).
    let net = Arc::new(SimNet::new());
    deploy(&net, &scenario.registry, &scenario.specs).expect("deploy");
    let resolver = IterativeResolver::new(
        net.clone(),
        scenario.roots.clone(),
        ResolverConfig::default(),
    );
    let prober = ChainProber::new(&resolver);
    let report = prober.discover(&target);

    println!(
        "Delegation graph of {target} (wire-probed, {} queries)\n",
        report.queries
    );
    for (zone, ns_set) in &report.zone_ns {
        println!("zone {zone}");
        for ns in ns_set {
            let banner = report
                .banners
                .get(ns)
                .and_then(|b| b.as_deref())
                .unwrap_or("?");
            println!("    NS {ns}  [BIND {banner}]");
        }
    }
    println!("\nTCB: {} nameservers", report.servers.len());

    // The paper's chain: "cornell.edu depends on rochester.edu, which
    // depends on wisc.edu, which in turn depends on umich.edu".
    let universe = universe_from_scenario(&scenario);
    let index = DependencyIndex::build(&universe);
    let mut ws = index.workspace();
    let closure = index.closure_view(&universe, &target, &mut ws);
    println!("\nTransitive chain check:");
    for host in [
        "cayuga.cs.rochester.edu",
        "dns.cs.wisc.edu",
        "dns2.itd.umich.edu",
    ] {
        let inside = closure
            .servers()
            .any(|s| universe.server(s).name == name(host));
        println!(
            "    {host}: {}",
            if inside { "IN the TCB" } else { "not in TCB" }
        );
    }

    // Machine-readable Figure 1: Graphviz DOT on stdout-adjacent file.
    let dg = DelegationGraph::build(&universe, &closure);
    let dot = dg.to_dot(&universe, "www.cs.cornell.edu");
    std::fs::write("figure1.dot", &dot).ok();
    println!(
        "
wrote figure1.dot ({} nodes, {} edges) — render with `dot -Tsvg`",
        dg.graph.node_count(),
        dg.graph.edge_count()
    );

    // Resilience vs security: Cornell's own servers stay up, yet the name
    // dies when two *remote* machines fail.
    let blocked: BTreeSet<_> = ["simon.cs.cornell.edu", "ns1.rochester.edu"]
        .iter()
        .filter_map(|h| universe.server_id(&name(h)))
        .collect();
    let reach = Reachability::compute(&universe, &blocked);
    println!(
        "\nAfter losing simon.cs.cornell.edu and ns1.rochester.edu: {target} resolves = {}",
        reach.name_resolves(&universe, &target)
    );
    println!("(cayuga is alive and authoritative, but its own address is now unlearnable)");

    // Confirm over the wire too.
    net.with_faults(|f| {
        f.kill("3.0.0.2".parse().unwrap());
        f.kill("4.0.0.1".parse().unwrap());
    });
    resolver.flush_cache();
    match resolver.resolve(&target, RrType::A) {
        Ok(_) => println!("wire check: unexpectedly resolved"),
        Err(e) => println!("wire check: resolution fails with `{e}`"),
    }
}
