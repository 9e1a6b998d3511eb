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
use perils::core::tcb::TcbTally;
use perils::core::universe::{ServerId, Universe};
use perils::core::usable::{Frame, Scratch};
use perils::dns::name::{name, DnsName};
use perils::survey::engine::{SyntheticSource, WorldSource};
use perils::survey::params::TopologyParams;
use perils::survey::topology::CCTLD_SEED;
use perils::util::table::{Align, Table};
use perils::vulndb::VulnDb;

fn main() {
    let mut params = TopologyParams::default_scaled(20040722);
    params.names = 8_000; // audit needs the infrastructure, not the crawl
    let world = SyntheticSource { params }.load();
    let universe = &world.universe;
    let index = DependencyIndex::build(universe);
    let mut ws = index.workspace();

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
        let stats = TcbTally::compute(universe, &index.closure_view(universe, &probe, &mut ws));
        table.row(vec![
            code.to_string(),
            stats.tcb_size.to_string(),
            stats.vulnerable.to_string(),
            format!("{:.0}%", stats.safety_percent()),
        ]);
    }
    println!("{}", table.render());

    // The dilemma: a self-hosted domain under .ua progressively adds
    // volunteer secondaries abroad — one per other ccTLD, each outside
    // .ua's own closure. Availability against single-server outages
    // rises, and so does the TCB.
    println!("Availability vs security for a .ua name (adding volunteer secondaries):\n");
    let probe = name("www.dilemma.ua");
    let ua_closure = index.closure_view(universe, &probe, &mut ws);
    let secondaries: Vec<DnsName> = CCTLD_SEED[1..]
        .iter()
        .filter_map(|code| {
            let cc = name(code);
            universe.server_ids().find(|&s| {
                let server = universe.server(s);
                !server.is_root
                    && server.name.is_subdomain_of(&cc)
                    && !ua_closure.contains_server(s)
            })
        })
        .take(4)
        .map(|s| universe.server(s).name.clone())
        .collect();
    let mut dilemma = Table::new(vec![
        "off-site secondaries",
        "TCB size",
        "survives 1 random outage",
        "vulnerable deps",
    ])
    .align(vec![Align::Right, Align::Right, Align::Right, Align::Right]);
    let no_advisories = VulnDb::from_advisories(Vec::new());
    let mut tcb_sizes = Vec::new();
    for extra in 0..=secondaries.len() {
        // The world plus a real dilemma.ua zone: its own server and the
        // first `extra` secondaries.
        let mut builder = Universe::builder();
        for event in universe.clone().into_events() {
            builder.apply(event, &no_advisories);
        }
        let mut ns = vec![name("ns1.dilemma.ua")];
        ns.extend_from_slice(&secondaries[..extra]);
        builder.add_zone(&name("dilemma.ua"), &ns);
        let grown = builder.finish();
        let grown_index = DependencyIndex::build(&grown);
        let mut grown_ws = grown_index.workspace();
        let closure = grown_index.closure_view(&grown, &probe, &mut grown_ws);
        let stats = TcbTally::compute(&grown, &closure);
        // Availability: the share of single TCB-member outages the name
        // survives, each solved on the closure's own frame.
        let frame = Frame::restricted(&grown, closure.zones(), closure.servers());
        let zone = frame.enclosing_zone(&grown, &probe);
        let mut scratch = Scratch::default();
        let tcb: Vec<ServerId> = closure
            .servers()
            .filter(|&s| !grown.server(s).is_root)
            .collect();
        let survived = tcb
            .iter()
            .filter(|&sid| {
                frame.solve(&frame.blocked_flags([sid]), &mut scratch);
                zone.is_some_and(|z| scratch.zone_reachable(z))
            })
            .count();
        dilemma.row(vec![
            extra.to_string(),
            stats.tcb_size.to_string(),
            format!("{:.0}%", 100.0 * survived as f64 / tcb.len().max(1) as f64),
            stats.vulnerable.to_string(),
        ]);
        tcb_sizes.push(stats.tcb_size);
    }
    println!("{}", dilemma.render());
    assert!(
        tcb_sizes.windows(2).all(|w| w[0] <= w[1]),
        "a secondary never shrinks the TCB: {tcb_sizes:?}"
    );
    assert!(
        tcb_sizes.windows(2).any(|w| w[0] < w[1]),
        "off-site secondaries grow the TCB: {tcb_sizes:?}"
    );
    println!(
        "\"Extending trust to a small number of nameservers that are geographically\n\
         distributed may provide high resilience against failures. However, DNS forces\n\
         them to have to trust the entire transitive closure...\" (§3.1)"
    );
}
