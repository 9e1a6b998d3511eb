//! Zombie-delegation analysis: names whose resolution leans on dead
//! infrastructure.
//!
//! A delegation can outlive the servers it points at: the NS set of a
//! zone keeps naming hosts whose own branches of the namespace have
//! disappeared, so nothing in the modeled universe can ever produce an
//! address for them (the *Zombies in Alternate Realities* workload from
//! the related-work list; the ROADMAP's "stale-delegation metric"). This
//! module classifies that decay over a [`Universe`]:
//!
//! * a non-root **server is dead** when the universe offers no path to an
//!   address for it — its name has no home zone more specific than the
//!   root (a zone supplying in-bailiwick glue counts as a home zone, so
//!   glued servers are alive by construction);
//! * a non-root **zone is a zombie delegation** when its NS set is
//!   non-empty and every listed server is dead: the delegation exists but
//!   can never be followed;
//! * a surveyed **name is orphaned** when some zone on its own delegation
//!   chain is a zombie — the name is resolvable only through dead
//!   infrastructure.
//!
//! [`ZombieDelegationMetric`] plugs the classification into the survey
//! engine as three per-name columns ([`columns::ZOMBIE_DEAD_IN_TCB`],
//! [`columns::ZOMBIE_ZONES`], [`columns::ZOMBIE_ORPHANED`]); the
//! universe-wide [`ZombieIndex`] is built once per run via
//! [`NameMetric::prepare`] and shared by every worker.

use crate::metric::{columns, ColumnKind, Measure, NameMetric};
use crate::universe::{ServerId, Universe, ZoneId};

/// True when no modeled path can produce an address for `server`: it is
/// not a root server, and its name has no home zone more specific than
/// the root that could supply (or delegate toward) the address. This
/// also covers in-bailiwick glue: a zone listing a server inside its own
/// cut *is* a home zone for that server, so glued servers are alive by
/// construction.
pub(crate) fn server_is_dead(universe: &Universe, server: ServerId) -> bool {
    !universe.server(server).is_root
        && universe
            .home_zone_of(server)
            .is_none_or(|z| universe.zone(z).origin.is_root())
}

/// Universe-wide liveness classification behind [`ZombieDelegationMetric`].
#[derive(Debug, Clone, PartialEq)]
pub struct ZombieIndex {
    dead_server: Vec<bool>,
    zombie_zone: Vec<bool>,
}

impl ZombieIndex {
    /// Borrows the flat state a snapshot archive persists.
    pub(crate) fn snapshot_parts(&self) -> (&[bool], &[bool]) {
        (&self.dead_server, &self.zombie_zone)
    }

    /// Reassembles the classification from archived flat state.
    pub(crate) fn from_snapshot_parts(
        universe: &Universe,
        dead_server: Vec<bool>,
        zombie_zone: Vec<bool>,
    ) -> Result<ZombieIndex, String> {
        if dead_server.len() != universe.server_count() {
            return Err(format!(
                "dead_server has {} entries for {} servers",
                dead_server.len(),
                universe.server_count()
            ));
        }
        if zombie_zone.len() != universe.zone_count() {
            return Err(format!(
                "zombie_zone has {} entries for {} zones",
                zombie_zone.len(),
                universe.zone_count()
            ));
        }
        Ok(ZombieIndex {
            dead_server,
            zombie_zone,
        })
    }

    /// Classifies every server and zone (O(servers + zones × NS)).
    pub fn build(universe: &Universe) -> ZombieIndex {
        let dead_server: Vec<bool> = universe
            .server_ids()
            .map(|sid| server_is_dead(universe, sid))
            .collect();
        let mut zombie_zone = vec![false; universe.zone_count()];
        for zid in universe.zone_ids() {
            let zone = universe.zone(zid);
            zombie_zone[zid.index()] = !zone.origin.is_root()
                && !zone.ns.is_empty()
                && zone.ns.iter().all(|&ns| dead_server[ns.index()]);
        }
        ZombieIndex {
            dead_server,
            zombie_zone,
        }
    }

    /// True when no modeled path can produce an address for `server`.
    pub fn is_dead(&self, server: ServerId) -> bool {
        self.dead_server[server.index()]
    }

    /// True when `zone`'s delegation points only at dead servers.
    pub fn is_zombie(&self, zone: ZoneId) -> bool {
        self.zombie_zone[zone.index()]
    }

    /// Number of zombie delegations in the universe.
    pub fn zombie_zones(&self) -> usize {
        self.zombie_zone.iter().filter(|&&z| z).count()
    }
}

/// Per-name zombie-delegation measurements as a pluggable survey metric:
/// dead TCB members, zombie zones in the closure, and an orphaned flag.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZombieDelegationMetric;

impl NameMetric for ZombieDelegationMetric {
    fn id(&self) -> &str {
        "zombie"
    }

    fn columns(&self) -> Vec<(&str, ColumnKind)> {
        vec![
            (columns::ZOMBIE_DEAD_IN_TCB, ColumnKind::Counts),
            (columns::ZOMBIE_ZONES, ColumnKind::Counts),
            (columns::ZOMBIE_ORPHANED, ColumnKind::Counts),
        ]
    }

    fn prepare<'a>(&'a self, universe: &'a Universe) -> Measure<'a> {
        let index = ZombieIndex::build(universe);
        Box::new(move |ctx, row| {
            row.count(
                ctx.closure
                    .servers()
                    .filter(|&s| !ctx.universe.server(s).is_root && index.is_dead(s))
                    .count(),
            );
            row.count(ctx.closure.zones().filter(|&z| index.is_zombie(z)).count());
            row.count(usize::from(
                ctx.closure
                    .target_chain()
                    .iter()
                    .any(|&z| index.is_zombie(z)),
            ));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;
    use perils_dns::name::{name, DnsName};

    /// root + com/net live; stale.com delegates only to hosts under the
    /// vanished ghost.zz branch; half.com has one dead and one live NS.
    fn decayed_universe() -> Universe {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("a.root-servers.net")]);
        b.add_zone(&name("net"), &[name("a.root-servers.net")]);
        b.add_zone(
            &name("stale.com"),
            &[name("ns1.ghost.zz"), name("ns2.ghost.zz")],
        );
        b.add_zone(
            &name("half.com"),
            &[name("ns.ghost.zz"), name("ns.alive.net")],
        );
        b.add_zone(&name("alive.net"), &[name("ns.alive.net")]);
        b.finish()
    }

    #[test]
    fn classifies_dead_servers_and_zombie_zones() {
        let u = decayed_universe();
        let index = ZombieIndex::build(&u);
        assert!(index.is_dead(u.server_id(&name("ns1.ghost.zz")).unwrap()));
        assert!(
            !index.is_dead(u.server_id(&name("ns.alive.net")).unwrap()),
            "alive.net is ns.alive.net's home zone (in-bailiwick glue)"
        );
        assert!(index.is_zombie(u.zone_id(&name("stale.com")).unwrap()));
        assert!(
            !index.is_zombie(u.zone_id(&name("half.com")).unwrap()),
            "one live NS keeps the delegation followable"
        );
        assert!(!index.is_zombie(u.zone_id(&name("com")).unwrap()));
        assert_eq!(u.server_ids().filter(|&s| index.is_dead(s)).count(), 3);
        assert_eq!(index.zombie_zones(), 1);
    }

    #[test]
    fn root_servers_are_never_dead() {
        let u = decayed_universe();
        let index = ZombieIndex::build(&u);
        assert!(!index.is_dead(u.server_id(&name("a.root-servers.net")).unwrap()));
    }

    #[test]
    fn metric_columns_align_with_classification() {
        let u = decayed_universe();
        let metric = ZombieDelegationMetric;
        let targets = [
            name("www.stale.com"),
            name("www.half.com"),
            name("www.alive.net"),
        ];
        let cols = crate::metric::tests::measure_targets(&metric, &u, &targets);
        assert_eq!(cols.len(), 3);
        let dead = cols[0].as_counts().expect("counts");
        let zones = cols[1].as_counts().expect("counts");
        let orphaned = cols[2].as_counts().expect("counts");
        assert_eq!(dead[0], 2, "both of stale.com's NS are dead");
        assert_eq!(zones[0], 1);
        assert_eq!(orphaned[0], 1, "stale.com names are orphaned");
        assert_eq!(dead[1], 1, "half.com keeps one live NS");
        assert_eq!(orphaned[1], 0);
        assert_eq!(dead[2], 0);
        assert_eq!(zones[2], 0);
        assert_eq!(orphaned[2], 0);
    }
}
