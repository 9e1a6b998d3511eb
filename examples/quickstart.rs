//! Quickstart: build a tiny simulated internet, resolve a name through it,
//! and run the paper's three analyses on one domain.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use perils::authserver::deploy::deploy;
use perils::authserver::scenarios::cornell_figure1;
use perils::core::closure::DependencyIndex;
use perils::core::hijack::{min_cut_flattened_view, min_hijack_exact};
use perils::core::tcb::TcbTally;
use perils::dns::name::name;
use perils::dns::rr::RrType;
use perils::netsim::SimNet;
use perils::resolver::{IterativeResolver, ResolverConfig};
use perils::survey::scenario::universe_from_scenario;
use std::sync::Arc;

fn main() {
    // 1. A packet-level universe: Figure 1's Cornell/Rochester/Wisconsin/
    //    Michigan delegation web, served by real (simulated) nameservers.
    let scenario = cornell_figure1();
    let net = Arc::new(SimNet::new());
    deploy(&net, &scenario.registry, &scenario.specs).expect("deploy scenario");
    println!("deployed {} authoritative servers\n", net.endpoint_count());

    // 2. Resolve www.cs.cornell.edu iteratively from the root hints.
    let resolver = IterativeResolver::new(
        net.clone(),
        scenario.roots.clone(),
        ResolverConfig::default(),
    );
    let target = name("www.cs.cornell.edu");
    let resolution = resolver.resolve(&target, RrType::A).expect("resolves");
    println!(
        "{target} -> {:?}  ({} queries)",
        resolution.v4_addresses(),
        resolution.queries
    );
    println!("--- resolution trace ---\n{}", resolution.trace.render());

    // 3. The paper's analyses, straight from the zone data.
    let universe = universe_from_scenario(&scenario);
    let index = DependencyIndex::build(&universe);
    let mut ws = index.workspace();
    let closure = index.closure_view(&universe, &target, &mut ws);
    let stats = TcbTally::compute(&universe, &closure);
    println!(
        "TCB of {target}: {} servers (excluding roots)",
        stats.tcb_size
    );
    println!(
        "  administered by the nameowner : {}",
        stats.nameowner_administered
    );
    println!("  with known vulnerabilities    : {}", stats.vulnerable);
    println!("  TCB members:");
    for server in closure.servers().map(|s| universe.server(s)) {
        if server.is_root {
            continue;
        }
        let mark = if server.vulnerable {
            " (VULNERABLE)"
        } else {
            ""
        };
        println!("    {}{mark}", server.name);
    }

    if let Some(cut) = min_cut_flattened_view(&universe, &index, &closure) {
        println!(
            "\nmin-cut (paper's method): {} servers, {} safe",
            cut.size(),
            cut.safe_members
        );
        for &sid in &cut.servers {
            println!("    {}", universe.server(sid).name);
        }
    }
    if let Some(exact) = min_hijack_exact(&universe, &closure) {
        println!(
            "exact AND/OR hijack minimum: {} servers ({})",
            exact.size(),
            if exact.fully_vulnerable() {
                "ALL vulnerable — scripted hijack!"
            } else {
                "needs safe boxes"
            }
        );
    }
}
