//! End-to-end resolution tests over the Figure 1 (Cornell) scenario:
//! referral walking, glueless sub-resolution, failover around dead
//! servers, transitive failure, CNAME chasing, the resolver's memo, the
//! query budget, and the survey prober.

use perils_authserver::deploy::deploy;
use perils_authserver::scenarios::{cornell_figure1, Scenario};
use perils_dns::name::name;
use perils_dns::rr::RrType;
use perils_netsim::SimNet;
use perils_resolver::iterative::ResolveError;
use perils_resolver::{ChainProber, IterativeResolver, ResolverConfig};
use std::net::Ipv4Addr;
use std::sync::Arc;

fn setup(scenario: &Scenario) -> (Arc<SimNet>, IterativeResolver) {
    let net = Arc::new(SimNet::new());
    deploy(&net, &scenario.registry, &scenario.specs).expect("deploys");
    let resolver = IterativeResolver::new(
        net.clone(),
        scenario.roots.clone(),
        ResolverConfig::default(),
    );
    (net, resolver)
}

#[test]
fn resolves_www_cs_cornell_edu() {
    let scenario = cornell_figure1();
    let (_net, resolver) = setup(&scenario);
    let resolution = resolver
        .resolve(&name("www.cs.cornell.edu"), RrType::A)
        .expect("resolves");
    assert_eq!(
        resolution.v4_addresses(),
        vec!["3.0.0.88".parse::<Ipv4Addr>().unwrap()]
    );
    // The walk passes root → edu → cornell.edu → cs.cornell.edu.
    let servers = resolution.trace.servers_contacted();
    assert!(servers.contains(&name("a.root-servers.net")));
    assert!(servers.contains(&name("a.edu-servers.net")));
    assert!(servers.contains(&name("cudns.cit.cornell.edu")));
    assert!(servers.contains(&name("simon.cs.cornell.edu")));
    assert!(resolution.queries >= 4);
}

#[test]
fn failover_uses_offsite_glueless_secondary() {
    let scenario = cornell_figure1();
    let (net, resolver) = setup(&scenario);
    // Kill simon (the glued primary for cs.cornell.edu): resolution must
    // fail over to cayuga.cs.rochester.edu, whose address requires a
    // sub-resolution through the rochester.edu chain.
    net.with_faults(|f| f.kill("3.0.0.2".parse().unwrap()));
    let resolution = resolver
        .resolve(&name("www.cs.cornell.edu"), RrType::A)
        .expect("fails over");
    assert_eq!(
        resolution.v4_addresses(),
        vec!["3.0.0.88".parse::<Ipv4Addr>().unwrap()]
    );
    let servers = resolution.trace.servers_contacted();
    assert!(
        servers.contains(&name("cayuga.cs.rochester.edu")),
        "{servers:?}"
    );
    assert!(
        resolution.trace.max_subresolution_depth() >= 1,
        "glueless cayuga requires a sub-resolution"
    );
}

#[test]
fn transitive_failure_blocks_resolution() {
    // The paper's core claim in miniature: cs.cornell.edu can become
    // unresolvable through failures entirely outside cornell.edu.
    let scenario = cornell_figure1();
    let (net, resolver) = setup(&scenario);
    // simon (in-domain secondary, also rochester secondary) dies, and
    // ns1.rochester.edu dies. cayuga is alive and authoritative for
    // cs.cornell.edu, but its address can no longer be learned: the
    // rochester.edu zone is unreachable.
    net.with_faults(|f| {
        f.kill("3.0.0.2".parse().unwrap()); // simon.cs.cornell.edu
        f.kill("4.0.0.1".parse().unwrap()); // ns1.rochester.edu
    });
    let err = resolver
        .resolve(&name("www.cs.cornell.edu"), RrType::A)
        .unwrap_err();
    assert!(
        matches!(err, ResolveError::Unreachable(_)),
        "expected unreachable, got {err:?}"
    );
}

#[test]
fn cname_chase() {
    let scenario = cornell_figure1();
    let (_net, resolver) = setup(&scenario);
    let resolution = resolver
        .resolve(&name("web.cs.cornell.edu"), RrType::A)
        .expect("resolves");
    assert_eq!(resolution.records.len(), 2, "CNAME + A");
    assert_eq!(resolution.records[0].rtype(), RrType::Cname);
    assert_eq!(
        resolution.v4_addresses(),
        vec!["3.0.0.88".parse::<Ipv4Addr>().unwrap()]
    );
}

#[test]
fn nxdomain_and_nodata() {
    let scenario = cornell_figure1();
    let (_net, resolver) = setup(&scenario);
    let err = resolver
        .resolve(&name("nonexistent.cs.cornell.edu"), RrType::A)
        .unwrap_err();
    assert!(matches!(err, ResolveError::NxDomain(_)), "{err:?}");
    let err = resolver
        .resolve(&name("www.cs.cornell.edu"), RrType::Mx)
        .unwrap_err();
    assert!(matches!(err, ResolveError::NoData(_)), "{err:?}");
}

#[test]
fn cache_eliminates_repeat_queries() {
    let scenario = cornell_figure1();
    let (net, resolver) = setup(&scenario);
    let first = resolver
        .resolve(&name("www.cs.cornell.edu"), RrType::A)
        .unwrap();
    // With every server down, only the resolver's memo can answer.
    net.with_faults(|f| {
        for spec in &scenario.specs {
            f.kill(spec.addr);
        }
    });
    let second = resolver
        .resolve(&name("www.cs.cornell.edu"), RrType::A)
        .expect("answer served from the memo");
    assert_eq!(second.queries, 0);
    assert_eq!(second.v4_addresses(), first.v4_addresses());
}

#[test]
fn budget_exhaustion_is_reported() {
    let scenario = cornell_figure1();
    let net = Arc::new(SimNet::new());
    deploy(&net, &scenario.registry, &scenario.specs).unwrap();
    let resolver = IterativeResolver::new(
        net,
        scenario.roots.clone(),
        ResolverConfig { query_budget: 2 },
    );
    let err = resolver
        .resolve(&name("www.cs.cornell.edu"), RrType::A)
        .unwrap_err();
    assert!(
        matches!(
            err,
            ResolveError::BudgetExhausted | ResolveError::Unreachable(_)
        ),
        "{err:?}"
    );
}

#[test]
fn prober_discovers_full_closure() {
    let scenario = cornell_figure1();
    let (_net, resolver) = setup(&scenario);
    let prober = ChainProber::new(&resolver);
    let report = prober.discover(&name("www.cs.cornell.edu"));

    // Zone cuts on some chain of the closure.
    for cut in [
        "edu",
        "cornell.edu",
        "cs.cornell.edu",
        "rochester.edu",
        "cs.rochester.edu",
        "wisc.edu",
    ] {
        assert!(
            report.zone_ns.contains_key(&name(cut)),
            "missing cut {cut}: {:?}",
            report.zone_ns.keys().collect::<Vec<_>>()
        );
    }
    // The full NS *sets* are recorded, not just the contacted servers: the
    // cs.cornell.edu set includes the off-site cayuga even though simon
    // answers first.
    let cs_set = &report.zone_ns[&name("cs.cornell.edu")];
    assert!(cs_set.contains(&name("simon.cs.cornell.edu")));
    assert!(cs_set.contains(&name("cayuga.cs.rochester.edu")));

    // Transitive reach: umich servers are in the closure (cornell →
    // rochester → wisc → umich), as the paper's Figure 1 shows.
    assert!(
        report.servers.contains(&name("dns2.itd.umich.edu")),
        "{:?}",
        report.servers
    );
    assert!(report.servers.contains(&name("dns.cs.wisc.edu")));

    // Banners were collected for discovered servers.
    assert_eq!(report.banners.len(), report.servers.len());
    assert_eq!(
        report.banners[&name("cayuga.cs.rochester.edu")].as_deref(),
        Some("8.2.4")
    );

    // Vulnerability overlay: exactly the 8.2.x boxes are flagged.
    let db = perils_vulndb::VulnDb::isc_feb_2004();
    let vulnerable: Vec<String> = report
        .banners
        .iter()
        .filter(|(_, banner)| {
            banner
                .as_deref()
                .and_then(perils_vulndb::BindVersion::parse)
                .is_some_and(|v| db.is_vulnerable(&v))
        })
        .map(|(name, _)| name.to_string())
        .collect();
    assert!(vulnerable.contains(&"cayuga.cs.rochester.edu".to_string()));
    assert!(vulnerable.contains(&"dns.cs.wisc.edu".to_string()));
    assert!(
        vulnerable.contains(&"slate.cs.rochester.edu".to_string()),
        "9.2.1 has the rdataset DoS"
    );
    assert!(!vulnerable.contains(&"cudns.cit.cornell.edu".to_string()));
}

#[test]
fn prober_is_deterministic() {
    let scenario = cornell_figure1();
    let (_net, resolver) = setup(&scenario);
    let prober = ChainProber::new(&resolver);
    let a = prober.discover(&name("www.cs.cornell.edu"));
    // Note: the resolver's memo persists between discoveries, so query
    // counts may differ; structure must not.
    let b = prober.discover(&name("www.cs.cornell.edu"));
    assert_eq!(a.servers, b.servers);
    assert_eq!(a.zone_ns, b.zone_ns);
    assert_eq!(a.banners, b.banners);
}
