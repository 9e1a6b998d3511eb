//! ccTLD audit: the availability-vs-security dilemma, quantified (§5).
//!
//! Generates a scaled synthetic internet and audits country-code TLDs the
//! way the paper audited .ua: how many servers does a name under each
//! ccTLD depend on, how many are vulnerable, and what does adding off-site
//! secondaries buy (availability) and cost (TCB growth)?
//!
//! ```text
//! cargo run --release --example cctld_audit
//! ```

use perils::core::closure::DependencyIndex;
use perils::core::tcb::TcbStats;
use perils::core::usable::Reachability;
use perils::dns::name::name;
use perils::survey::engine::{SyntheticSource, WorldSource};
use perils::survey::params::TopologyParams;
use perils::survey::topology::CCTLD_SEED;
use perils::util::table::{Align, Table};
use std::collections::BTreeSet;

fn main() {
    let mut params = TopologyParams::default_scaled(20040722);
    params.names = 8_000; // audit needs the infrastructure, not the crawl
    let world = SyntheticSource { params }.load();
    let universe = &world.universe;
    let index = DependencyIndex::build(universe);

    // Audit the fifteen messiest ccTLDs: TCB of a hypothetical name
    // www.gov.<cc>, vulnerable dependencies, countries-of-dependence.
    println!("ccTLD audit (paper §3.1: \"DNS creates a small world after all!\")\n");
    let mut table = Table::new(vec!["ccTLD", "TCB", "vulnerable", "safety"]).align(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for code in CCTLD_SEED.iter().take(15) {
        let probe = name(&format!("www.gov.{code}"));
        let closure = index.closure_for(universe, &probe);
        let stats = TcbStats::compute(universe, &closure);
        table.row(vec![
            code.to_string(),
            stats.tcb_size.to_string(),
            stats.vulnerable.to_string(),
            format!("{:.0}%", stats.safety_percent()),
        ]);
    }
    println!("{}", table.render());

    // The dilemma: take one self-hosted domain and progressively add
    // off-site volunteer secondaries. Availability against random outages
    // rises — and so does the TCB.
    println!("Availability vs security for a .ua name (adding volunteer secondaries):\n");
    let ua_zone = universe.zone_id(&name("ua")).expect("ua exists");
    let ua_ns = universe.zone(ua_zone).ns.clone();
    let mut dilemma = Table::new(vec![
        "off-site secondaries",
        "TCB size",
        "survives 1 random outage",
        "vulnerable deps",
    ])
    .align(vec![Align::Right, Align::Right, Align::Right, Align::Right]);
    // Use the real ua TLD's NS set as the pool of candidate secondaries.
    for extra in 0..=4.min(ua_ns.len()) {
        // A synthetic domain under .ua with `extra` of the TLD's
        // volunteer servers as secondaries: approximate its closure by
        // the union of its own chain and the chosen servers' closures.
        let probe = name("www.dilemma.ua");
        let mut closure = index.closure_for(universe, &probe);
        for &sid in ua_ns.iter().take(extra) {
            closure.servers.insert(sid);
            for dep in index.deps_of(sid) {
                closure.servers.insert(dep);
            }
            closure
                .zones
                .extend(universe.chain_zones(&universe.server(sid).name));
        }
        let stats = TcbStats::compute(universe, &closure);
        // Availability: fraction of single-server outages the name
        // survives (its own zone keeps ≥1 usable server).
        let survives = {
            let total = closure.servers.len().max(1);
            let mut ok = 0usize;
            for &sid in closure.servers.iter().take(64) {
                let blocked: BTreeSet<_> = [sid].into_iter().collect();
                let reach = Reachability::compute(universe, &blocked);
                if reach.name_resolves(universe, &name("www.rkc.lviv.ua")) {
                    ok += 1;
                }
            }
            format!("{:.0}%", 100.0 * ok as f64 / total.min(64) as f64)
        };
        dilemma.row(vec![
            extra.to_string(),
            stats.tcb_size.to_string(),
            survives,
            stats.vulnerable.to_string(),
        ]);
    }
    println!("{}", dilemma.render());
    println!(
        "\"Extending trust to a small number of nameservers that are geographically\n\
         distributed may provide high resilience against failures. However, DNS forces\n\
         them to have to trust the entire transitive closure...\" (§3.1)"
    );
}
