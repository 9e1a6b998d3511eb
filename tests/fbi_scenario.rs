//! The fbi.gov case study (§3.2) end-to-end: fingerprinting over the wire,
//! the four named exploits, partial hijack via one compromised box, and
//! the DoS-assisted complete hijack.

use perils::authserver::deploy::deploy;
use perils::authserver::scenarios::fbi_case;
use perils::core::attack::AttackSim;
use perils::core::closure::DependencyIndex;
use perils::core::hijack::min_cut_flattened_view;
use perils::dns::name::name;
use perils::dns::rr::RrType;
use perils::netsim::{FaultPlan, Region, SimNet};
use perils::resolver::{ChainProber, IterativeResolver, ResolverConfig};
use perils::survey::scenario::universe_from_scenario;
use perils::vulndb::{BindVersion, VulnDb};
use std::collections::BTreeSet;
use std::sync::Arc;

#[test]
fn fingerprinting_finds_the_four_exploits() {
    let scenario = fbi_case();
    let net = Arc::new(SimNet::new(5, FaultPlan::none(), Region(0)));
    deploy(&net, &scenario.registry, &scenario.specs).expect("deploy");
    let resolver = IterativeResolver::new(net, scenario.roots.clone(), ResolverConfig::default());
    let prober = ChainProber::new(&resolver);
    let report = prober.discover(&name("www.fbi.gov"));

    // The probe discovered the transitive chain.
    assert!(report.servers.contains(&name("dns.sprintip.com")));
    assert!(report.servers.contains(&name("reston-ns2.telemail.net")));

    // The banner of reston-ns2 parses to 8.2.4 with the paper's four
    // exploits: libbind, negcache, sigrec, DoS multi.
    let banner = report.banners[&name("reston-ns2.telemail.net")]
        .as_deref()
        .unwrap();
    let version = BindVersion::parse(banner).unwrap();
    let db = VulnDb::isc_feb_2004();
    let keys: Vec<&str> = db.affecting(&version).iter().map(|a| a.key).collect();
    assert_eq!(keys, vec!["libbind", "negcache", "sigrec", "DoS multi"]);
}

#[test]
fn partial_then_complete_hijack() {
    let scenario = fbi_case();
    let universe = universe_from_scenario(&scenario);
    let index = DependencyIndex::build(&universe);
    let sim = AttackSim::new(&universe, &index);
    let target = name("www.fbi.gov");

    let foothold = sim.all_scripted_vulnerable();
    assert_eq!(foothold.len(), 1, "only reston-ns2");

    // Partial immediately; not complete while the clean boxes serve.
    let outcome = sim.assess(&target, &foothold, &BTreeSet::new());
    assert!(outcome.partial && !outcome.complete);

    // Escalation captures the sprintip servers.
    let owned = sim.escalate(&foothold, &BTreeSet::new(), true);
    assert!(owned.contains(&universe.server_id(&name("dns.sprintip.com")).unwrap()));
    assert!(owned.contains(&universe.server_id(&name("dns2.sprintip.com")).unwrap()));

    // DoS on the two clean telemail boxes completes it.
    let dosed: BTreeSet<_> = ["reston-ns1.telemail.net", "reston-ns3.telemail.net"]
        .iter()
        .map(|h| universe.server_id(&name(h)).unwrap())
        .collect();
    let outcome = sim.assess(&target, &foothold, &dosed);
    assert!(outcome.complete, "{outcome:?}");
}

#[test]
fn min_cut_reflects_bottleneck_structure() {
    let scenario = fbi_case();
    let universe = universe_from_scenario(&scenario);
    let index = DependencyIndex::build(&universe);
    let target = name("www.fbi.gov");
    let mut ws = index.workspace();
    let closure = index.closure_view(&universe, &target, &mut ws);
    let cut = min_cut_flattened_view(&universe, &index, &closure).expect("cuttable");
    // Two machines suffice to take fbi.gov offline; two distinct minimum
    // cuts exist (the sprintip pair, or the gov+gtld registry pair) and
    // either is a valid bottleneck reading.
    assert_eq!(cut.size(), 2);
    let cut_names: BTreeSet<String> = cut
        .servers
        .iter()
        .map(|&s| universe.server(s).name.to_string())
        .collect();
    let sprintip_pair =
        cut_names.contains("dns.sprintip.com") && cut_names.contains("dns2.sprintip.com");
    let registry_pair =
        cut_names.contains("a.gov-servers.net") && cut_names.contains("a.gtld-servers.net");
    assert!(
        sprintip_pair || registry_pair,
        "unexpected cut {cut_names:?}"
    );
    // No all-vulnerable min-cut exists: fbi.gov is not in the paper's 30%
    // — hijacking it takes the multi-stage attack of §3.2.
    assert!(!cut.fully_vulnerable());
}

#[test]
fn wire_resolution_of_fbi_works() {
    let scenario = fbi_case();
    let net = Arc::new(SimNet::new(6, FaultPlan::none(), Region(0)));
    deploy(&net, &scenario.registry, &scenario.specs).expect("deploy");
    let resolver = IterativeResolver::new(net, scenario.roots.clone(), ResolverConfig::default());
    let resolution = resolver
        .resolve(&name("www.fbi.gov"), RrType::A)
        .expect("resolves");
    assert_eq!(
        resolution.v4_addresses(),
        vec!["8.0.0.80".parse::<std::net::Ipv4Addr>().unwrap()]
    );
    // Resolution crossed the transitive chain: sprintip's servers had to
    // be resolved through telemail (glueless sub-resolutions).
    assert!(resolution.trace.max_subresolution_depth() >= 1);
}
