//! Attack simulation: what does compromising a server set actually buy?
//!
//! Models the paper's attacker (§3.2): scripted exploits grant control of
//! vulnerable servers; control of a server lets the attacker answer
//! queries that reach it, *diverting* any resolution that could consult it
//! (partial hijack) and fully capturing names whose every clean path is
//! blocked (complete hijack). Optionally the attacker can also DoS
//! non-vulnerable servers ("a denial of service attack on the
//! non-vulnerable nameserver, coupled with the compromise of the other
//! vulnerable bottleneck nameservers").
//!
//! Escalation reproduces the fbi.gov chain: compromising
//! `reston-ns2.telemail.net` poisons resolutions of `dns.sprintip.com`,
//! which poisons `www.fbi.gov`.

use crate::closure::DependencyIndex;
use crate::universe::{ServerId, Universe};
use crate::usable::{Frame, Reachability, Scratch};
use perils_dns::name::DnsName;
use std::collections::BTreeSet;

/// Per-name attack outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameOutcome {
    /// Some possible resolution path consults an attacker-controlled
    /// server: queries can be diverted some of the time.
    pub partial: bool,
    /// No clean resolution path remains: every resolution can be diverted.
    pub complete: bool,
}

/// Aggregate impact over a set of surveyed names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImpactSummary {
    /// Names assessed.
    pub names: usize,
    /// Names partially hijackable.
    pub partial: usize,
    /// Names completely hijackable.
    pub complete: usize,
}

/// The attack simulator.
pub struct AttackSim<'u> {
    universe: &'u Universe,
    index: &'u DependencyIndex,
}

impl<'u> AttackSim<'u> {
    /// Creates a simulator.
    pub fn new(universe: &'u Universe, index: &'u DependencyIndex) -> AttackSim<'u> {
        AttackSim { universe, index }
    }

    /// Assesses one name under `owned` (attacker-controlled) and `dosed`
    /// (unavailable) servers.
    pub fn assess(
        &self,
        target: &DnsName,
        owned: &BTreeSet<ServerId>,
        dosed: &BTreeSet<ServerId>,
    ) -> NameOutcome {
        let mut ws = self.index.workspace();
        let closure = self.index.closure_view(self.universe, target, &mut ws);
        let partial = closure.servers().any(|s| owned.contains(&s));
        let blocked: BTreeSet<ServerId> = owned.union(dosed).copied().collect();
        let reach = Reachability::compute(self.universe, &blocked);
        let complete = partial && !reach.name_resolves(self.universe, target);
        NameOutcome { partial, complete }
    }

    /// Assesses many names, sharing one reachability fixed point.
    pub fn impact(
        &self,
        targets: &[DnsName],
        owned: &BTreeSet<ServerId>,
        dosed: &BTreeSet<ServerId>,
    ) -> ImpactSummary {
        let blocked: BTreeSet<ServerId> = owned.union(dosed).copied().collect();
        let reach = Reachability::compute(self.universe, &blocked);
        let mut summary = ImpactSummary::default();
        let mut ws = self.index.workspace();
        for target in targets {
            summary.names += 1;
            let closure = self.index.closure_view(self.universe, target, &mut ws);
            let partial = closure.servers().any(|s| owned.contains(&s));
            if partial {
                summary.partial += 1;
                if !reach.name_resolves(self.universe, target) {
                    summary.complete += 1;
                }
            }
        }
        summary
    }

    /// Compromises every server with a scripted exploit — the paper's
    /// baseline attacker capability.
    pub fn all_scripted_vulnerable(&self) -> BTreeSet<ServerId> {
        self.universe
            .server_ids()
            .filter(|&s| {
                let e = self.universe.server(s);
                e.scripted_exploit && !e.is_root
            })
            .collect()
    }

    /// Escalates an initial foothold to a fixed point: a server is
    /// captured once the attacker can divert resolutions of its *name*.
    ///
    /// With `via_partial` (the realistic model, and the one the fbi.gov
    /// narrative uses) any poisoned path suffices; otherwise only names
    /// with no clean path left are captured.
    pub fn escalate(
        &self,
        initial: &BTreeSet<ServerId>,
        dosed: &BTreeSet<ServerId>,
        via_partial: bool,
    ) -> BTreeSet<ServerId> {
        let universe = self.universe;
        let mut owned = initial.clone();
        // The whole-universe frame does not depend on what is blocked:
        // each round is one solve over it.
        let frame = Frame::whole(universe);
        let mut scratch = Scratch::default();
        let mut ws = self.index.workspace();
        let mut blocked = frame.blocked_flags(initial.union(dosed));
        loop {
            frame.solve(&blocked, &mut scratch);
            let mut grew = false;
            for sid in universe.server_ids() {
                if owned.contains(&sid) || universe.server(sid).is_root {
                    continue;
                }
                let captured = if via_partial {
                    let target = &universe.server(sid).name;
                    let closure = self.index.closure_view(universe, target, &mut ws);
                    closure.servers().any(|s| owned.contains(&s))
                } else {
                    // The server's name resolves iff its home zone does.
                    !universe
                        .home_zone_of(sid)
                        .is_some_and(|home| scratch.zone_reachable(home.index()))
                };
                if captured {
                    owned.insert(sid);
                    blocked[sid.index()] = true;
                    grew = true;
                }
            }
            if !grew {
                return owned;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use perils_dns::name::{name, DnsName};

    /// The §5 fixture: root → com → victim.com, whose two NS hosts live
    /// in provider.net, served by a single vulnerable provider box.
    pub(crate) fn provider_universe() -> Universe {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.raw_server(&name("ns.provider.net"), true, false);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("a.root-servers.net")]);
        b.add_zone(&name("net"), &[name("a.root-servers.net")]);
        b.add_zone(
            &name("victim.com"),
            &[name("ns1.provider.net"), name("ns2.provider.net")],
        );
        b.add_zone(&name("provider.net"), &[name("ns.provider.net")]);
        b.finish()
    }

    /// The fbi.gov structure: fbi.gov ← sprintip.com ← telemail.net, with
    /// one vulnerable telemail box.
    fn fbi_universe() -> Universe {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.raw_server(&name("reston-ns2.telemail.net"), true, false);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("gov"), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("a.root-servers.net")]);
        b.add_zone(&name("net"), &[name("a.root-servers.net")]);
        b.add_zone(
            &name("fbi.gov"),
            &[name("dns.sprintip.com"), name("dns2.sprintip.com")],
        );
        b.add_zone(
            &name("sprintip.com"),
            &[
                name("reston-ns1.telemail.net"),
                name("reston-ns2.telemail.net"),
                name("reston-ns3.telemail.net"),
            ],
        );
        b.add_zone(
            &name("telemail.net"),
            &[
                name("reston-ns1.telemail.net"),
                name("reston-ns2.telemail.net"),
            ],
        );
        b.finish()
    }

    #[test]
    fn compromising_reston_ns2_partially_hijacks_fbi() {
        let u = fbi_universe();
        let index = DependencyIndex::build(&u);
        let sim = AttackSim::new(&u, &index);
        let owned = sim.all_scripted_vulnerable();
        assert_eq!(owned.len(), 1, "only reston-ns2 is scripted-vulnerable");
        let outcome = sim.assess(&name("www.fbi.gov"), &owned, &BTreeSet::new());
        assert!(outcome.partial, "fbi.gov resolution can be diverted");
        assert!(
            !outcome.complete,
            "other telemail/sprintip boxes still serve cleanly"
        );
    }

    #[test]
    fn dos_on_remaining_bottlenecks_completes_the_hijack() {
        let u = fbi_universe();
        let index = DependencyIndex::build(&u);
        let sim = AttackSim::new(&u, &index);
        let owned = sim.all_scripted_vulnerable();
        // DoS the other two sprintip-serving telemail boxes and the other
        // fbi NS paths collapse: dns*.sprintip.com become unresolvable
        // except through the attacker.
        let dosed: BTreeSet<ServerId> = [
            u.server_id(&name("reston-ns1.telemail.net")).unwrap(),
            u.server_id(&name("reston-ns3.telemail.net")).unwrap(),
        ]
        .into_iter()
        .collect();
        let outcome = sim.assess(&name("www.fbi.gov"), &owned, &dosed);
        assert!(outcome.partial && outcome.complete, "{outcome:?}");
    }

    #[test]
    fn escalation_reaches_fbi_serving_boxes() {
        let u = fbi_universe();
        let index = DependencyIndex::build(&u);
        let sim = AttackSim::new(&u, &index);
        let initial = sim.all_scripted_vulnerable();
        let owned = sim.escalate(&initial, &BTreeSet::new(), true);
        // Partial escalation captures the sprintip servers (their names
        // resolve through telemail, where the attacker sits) and from
        // there the fbi.gov servers.
        for captured in ["dns.sprintip.com", "dns2.sprintip.com"] {
            assert!(
                owned.contains(&u.server_id(&name(captured)).unwrap()),
                "{captured} should be captured: {owned:?}"
            );
        }
        // Complete-only escalation stays put: nothing is fully cut off.
        let strict = sim.escalate(&initial, &BTreeSet::new(), false);
        assert_eq!(strict, initial);
    }

    #[test]
    fn strict_escalation_captures_cut_off_servers() {
        let u = fbi_universe();
        let index = DependencyIndex::build(&u);
        let sim = AttackSim::new(&u, &index);
        let sid = |n: &str| u.server_id(&name(n)).unwrap();
        // With the other telemail.net box DoS'd, telemail.net has no clean
        // server left, and sprintip.com's third server — its name lives in
        // telemail.net — falls with it; so do both sprintip.com hosts.
        let dosed: BTreeSet<ServerId> = [sid("reston-ns1.telemail.net")].into_iter().collect();
        let owned = sim.escalate(&sim.all_scripted_vulnerable(), &dosed, false);
        let expected: BTreeSet<ServerId> = [
            "reston-ns1.telemail.net",
            "reston-ns2.telemail.net",
            "reston-ns3.telemail.net",
            "dns.sprintip.com",
            "dns2.sprintip.com",
        ]
        .into_iter()
        .map(sid)
        .collect();
        assert_eq!(owned, expected);
    }

    #[test]
    fn impact_counts() {
        let u = fbi_universe();
        let index = DependencyIndex::build(&u);
        let sim = AttackSim::new(&u, &index);
        let owned = sim.all_scripted_vulnerable();
        let targets = vec![name("www.fbi.gov"), name("www.unrelated.gov")];
        let summary = sim.impact(&targets, &owned, &BTreeSet::new());
        assert_eq!(summary.names, 2);
        assert_eq!(
            summary.partial, 1,
            "unrelated.gov has no telemail dependency"
        );
        assert_eq!(summary.complete, 0);
    }

    #[test]
    fn empty_attacker_changes_nothing() {
        let u = fbi_universe();
        let index = DependencyIndex::build(&u);
        let sim = AttackSim::new(&u, &index);
        let outcome = sim.assess(&name("www.fbi.gov"), &BTreeSet::new(), &BTreeSet::new());
        assert!(!outcome.partial && !outcome.complete);
        let owned = sim.escalate(&BTreeSet::new(), &BTreeSet::new(), true);
        assert!(owned.is_empty());
    }

    /// §5: owning a name's only provider is a complete hijack — with
    /// nothing signed the attacker forges (`partial`), and signed or not
    /// no clean path is left (`complete`: denial) — while a name that
    /// never consults the provider is untouched.
    #[test]
    fn owning_the_only_provider_completely_hijacks() {
        let u = provider_universe();
        let index = DependencyIndex::build(&u);
        let sim = AttackSim::new(&u, &index);
        let owned = sim.all_scripted_vulnerable();
        assert_eq!(
            owned.len(),
            1,
            "only ns.provider.net is scripted-vulnerable"
        );
        let outcome = sim.assess(&name("www.victim.com"), &owned, &BTreeSet::new());
        assert!(outcome.partial && outcome.complete, "{outcome:?}");
        let targets = vec![name("www.victim.com"), name("www.unrelated.com")];
        let summary = sim.impact(&targets, &owned, &BTreeSet::new());
        assert_eq!(
            (summary.names, summary.partial, summary.complete),
            (2, 1, 1)
        );
    }
}
