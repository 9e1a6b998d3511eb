//! Bridging packet-level scenarios into the analysis model.
//!
//! Hand-built [`Scenario`]s (Figure 1, fbi.gov) and tiny generated worlds
//! can be analyzed two ways: structurally (straight from the zone
//! registry) or by actually probing the simulated network with the
//! resolver. This module provides both paths plus the glue that turns a
//! wire-probed [`DependencyReport`] into a [`Universe`], so integration
//! tests can assert the two agree.

use perils_authserver::scenarios::Scenario;
use perils_core::universe::{Universe, UniverseEvent};
use perils_dns::name::DnsName;
use perils_resolver::DependencyReport;
use perils_vulndb::VulnDb;
use std::collections::BTreeMap;

/// Streams a scenario's registry as incremental [`UniverseEvent`]s, with
/// banners taken from the server specs (ground truth). The walk itself —
/// server events per NS mention, then zone events with the apex ∪
/// parent-view NS set — is [`perils_core::registry_events`], the single
/// registry walk; this wrapper only supplies the spec-backed banner
/// lookup.
pub fn scenario_events(scenario: &Scenario) -> Vec<UniverseEvent> {
    let banners: BTreeMap<DnsName, String> = scenario
        .specs
        .iter()
        .filter_map(|spec| {
            spec.software
                .banner()
                .map(|b| (spec.host_name.to_lowercase(), b))
        })
        .collect();
    perils_core::registry_events(&scenario.registry, |server| {
        banners.get(&server.to_lowercase()).cloned()
    })
}

/// Builds the analysis universe structurally from a scenario's registry,
/// with banners taken from the server specs (ground truth) — the
/// materialized collector over [`scenario_events`].
pub fn universe_from_scenario(scenario: &Scenario) -> Universe {
    let db = VulnDb::isc_feb_2004();
    let mut builder = Universe::builder();
    for event in scenario_events(scenario) {
        builder.apply(event, &db);
    }
    builder.finish()
}

/// Streams wire-probed dependency reports (one per surveyed name) as
/// incremental [`UniverseEvent`]s: the root hints first, then each
/// report's banners and zone→NS views in report order.
pub fn report_events(reports: &[DependencyReport], root_names: &[DnsName]) -> Vec<UniverseEvent> {
    let mut events = Vec::new();
    for root in root_names {
        events.push(UniverseEvent::Server {
            name: root.clone(),
            banner: None,
            is_root: true,
        });
    }
    for report in reports {
        for (server, banner) in &report.banners {
            events.push(UniverseEvent::Server {
                name: server.clone(),
                banner: banner.clone(),
                is_root: false,
            });
        }
        for (zone, ns) in &report.zone_ns {
            events.push(UniverseEvent::Zone {
                origin: zone.clone(),
                ns: ns.iter().cloned().collect(),
            });
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use perils_authserver::scenarios::fbi_case;
    use perils_dns::name::name;

    #[test]
    fn scenario_universe_carries_vulnerability_truth() {
        let scenario = fbi_case();
        let u = universe_from_scenario(&scenario);
        let ns2 = u
            .server_id(&name("reston-ns2.telemail.net"))
            .expect("exists");
        assert!(u.server(ns2).vulnerable);
        assert!(u.server(ns2).scripted_exploit);
        let ns1 = u
            .server_id(&name("reston-ns1.telemail.net"))
            .expect("exists");
        assert!(!u.server(ns1).vulnerable);
        // Root flag comes from serving the root zone.
        let root = u.server_id(&name("a.root-servers.net")).expect("exists");
        assert!(u.server(root).is_root);
    }

    /// The collector and the engine's scenario stream build one universe,
    /// so a scenario world resolves identically through either.
    #[test]
    fn collector_equals_the_scenario_source_stream() {
        use crate::engine::{ScenarioSource, WorldSource};
        use perils_authserver::scenarios::{cornell_figure1, lint_tripwire};
        for scenario in [fbi_case(), cornell_figure1(), lint_tripwire()] {
            let streamed = ScenarioSource {
                scenario: &scenario,
                targets: Vec::new(),
            }
            .stream()
            .build_universe();
            assert_eq!(universe_from_scenario(&scenario), streamed);
        }
    }

    #[test]
    fn fbi_zone_structure_present() {
        let u = universe_from_scenario(&fbi_case());
        let fbi = u.zone_id(&name("fbi.gov")).expect("fbi.gov zone");
        let ns: Vec<String> = u
            .zone(fbi)
            .ns
            .iter()
            .map(|&s| u.server(s).name.to_string())
            .collect();
        assert!(ns.contains(&"dns.sprintip.com".to_string()));
        assert!(ns.contains(&"dns2.sprintip.com".to_string()));
    }
}
