//! Closure references: the per-name BFS the memoized index replaced, and
//! a closure pushed back through the universe builder by name. Neither
//! reads the dependency index, so a property that compares the index's
//! closures against them checks the whole index build.

use perils_core::universe::{ServerId, Universe, ZoneId};
use perils_dns::name::DnsName;
use std::collections::BTreeSet;

/// The per-name BFS the memoized closures are tested against — the
/// reference for `DependencyIndex::closure_view`. A server's dependencies
/// are derived from the universe alone: the NS sets of every zone on its
/// name's chain ([`Universe::chain_zones`], root excluded). Returns the
/// closure's servers and zones, ascending.
pub fn closure_for_bfs(universe: &Universe, target: &DnsName) -> (Vec<ServerId>, Vec<ZoneId>) {
    let mut servers: BTreeSet<ServerId> = BTreeSet::new();
    let mut zones: BTreeSet<ZoneId> = BTreeSet::new();
    let mut queue: Vec<DnsName> = vec![target.clone()];
    while let Some(name) = queue.pop() {
        for zid in universe.chain_zones(&name) {
            zones.insert(zid);
            for &ns in &universe.zone(zid).ns {
                if servers.insert(ns) {
                    queue.push(universe.server(ns).name.clone());
                }
            }
        }
    }
    (servers.into_iter().collect(), zones.into_iter().collect())
}

/// Extracts a self-contained sub-universe holding exactly `zones` and
/// `servers` (a closure's, as `perils_core::usable::Frame::restricted`
/// takes them), rebuilt by name through the universe builder.
///
/// A closure is NS-complete (every NS of every closure zone is a closure
/// server), so analyses over the sub-universe — reachability fixed points,
/// hijack searches — agree with the full universe while being orders of
/// magnitude smaller. Zones whose parent falls outside `zones` are treated
/// as delegated straight from the trusted hints, which matches their role
/// in the name's resolution. The exact hijack search solves on the
/// restricted frame instead; this is the independent reference the
/// property tests check that frame against.
pub fn extract_universe(
    universe: &Universe,
    zones: impl IntoIterator<Item = ZoneId>,
    servers: impl IntoIterator<Item = ServerId>,
) -> Universe {
    let mut builder = Universe::builder();
    for sid in servers {
        let s = universe.server(sid);
        builder.raw_server(&s.name, s.vulnerable, s.is_root);
    }
    for zid in zones {
        let zone = universe.zone(zid);
        let ns_names: Vec<DnsName> = zone
            .ns
            .iter()
            .map(|&s| universe.server(s).name.clone())
            .collect();
        builder.add_zone(&zone.origin, &ns_names);
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perils_authserver::scenarios::cornell_figure1;
    use perils_core::closure::DependencyIndex;
    use perils_dns::name::name;

    /// The paper's Figure 1 web: cornell → rochester → wisc → umich, with
    /// cornell ↔ rochester mutual secondaries.
    fn figure1_universe() -> Universe {
        perils_survey::scenario::universe_from_scenario(&cornell_figure1())
    }

    #[test]
    fn memoized_closure_matches_bfs_on_cyclic_universe() {
        // The cornell ↔ rochester web collapses into one SCC; the memoized
        // union must agree with the legacy BFS set-for-set for every
        // plausible target, including names inside the cycle.
        let u = figure1_universe();
        let index = DependencyIndex::build(&u);
        let mut ws = index.workspace();
        for target in [
            "www.cs.cornell.edu",
            "www.cs.rochester.edu",
            "www.rochester.edu",
            "www.cs.wisc.edu",
            "www.umich.edu",
            "host.edu-servers.net",
            "nowhere.test",
        ] {
            let target = name(target);
            let (servers, zones) = closure_for_bfs(&u, &target);
            let memo = index.closure_view(&u, &target, &mut ws);
            assert!(memo.servers().eq(servers), "{target} servers");
            assert!(memo.zones().eq(zones), "{target} zones");
            assert_eq!(
                memo.target_chain(),
                u.chain_zones(&target),
                "{target} chain"
            );
        }
    }

    #[test]
    fn view_matches_bfs_and_answers_membership() {
        let u = figure1_universe();
        let index = DependencyIndex::build(&u);
        let mut ws = index.workspace();
        for target in ["www.cs.cornell.edu", "www.umich.edu", "nowhere.test"] {
            let target = name(target);
            let (servers, zones) = closure_for_bfs(&u, &target);
            let view = index.closure_view(&u, &target, &mut ws);
            assert_eq!(view.server_count(), servers.len(), "{target}");
            assert_eq!(view.zone_count(), zones.len(), "{target}");
            assert_eq!(
                view.tcb_size(&u),
                servers.iter().filter(|&&s| !u.server(s).is_root).count()
            );
            for sid in u.server_ids() {
                assert_eq!(
                    view.contains_server(sid),
                    servers.contains(&sid),
                    "{target} {sid:?}"
                );
            }
        }
    }
}
